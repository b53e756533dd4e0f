// Package disk implements a mechanical disk-drive model in the style of
// Ruemmler and Wilkes ("An Introduction to Disk Drive Modeling", IEEE
// Computer 1994), parameterized for the HP 97560 used by the paper
// (validated in Kotz/Toh/Radhakrishnan, Dartmouth TR94-220).
//
// The model tracks geometry (cylinders, heads, sectors, track and
// cylinder skew), a piecewise seek-time curve, rotational position
// derived from absolute virtual time, a read-ahead cache segment, and a
// per-disk first-come-first-served request queue. Data is carried for
// real: writes store bytes, reads return them, so higher layers can
// verify end-to-end correctness.
package disk

import (
	"math"
	"time"
)

// Spec describes a disk drive model.
type Spec struct {
	Name string

	// Geometry.
	Cylinders       int
	Heads           int // data surfaces == tracks per cylinder
	SectorsPerTrack int
	SectorSize      int

	// Mechanics.
	RPM        float64
	HeadSwitch time.Duration
	// Seek returns the time to move the arm across the given number of
	// cylinders (>= 1). Zero distance never calls Seek.
	Seek func(cylinders int) time.Duration

	// TrackSkew and CylinderSkew are the number of sector slots the
	// logical origin of a track is rotated relative to the previous
	// track, hiding head-switch and cylinder-switch times during
	// sequential transfers. CylinderSkew is applied in addition to
	// TrackSkew at cylinder boundaries.
	TrackSkew    int
	CylinderSkew int

	// ControllerOverhead is the fixed per-command processing time.
	ControllerOverhead time.Duration

	// CacheSegmentSectors is the size of the read-ahead cache segment.
	// Zero disables read-ahead (an ablation knob).
	CacheSegmentSectors int
}

// HP97560 returns the paper's disk: a 1.3 GB HP 97560.
//
// Parameters follow Ruemmler & Wilkes and Dartmouth TR94-220: 1962
// cylinders, 19 data heads, 72 sectors of 512 bytes per track, 4002 RPM;
// seek(d) = 3.24 + 0.400·sqrt(d) ms for short seeks (d <= 383) and
// 8.00 + 0.008·d ms for long ones. Skews are chosen to just cover the
// head-switch and single-cylinder-seek times, which yields the sustained
// sequential rate of about 2.3 MB/s that the paper quotes as the 2.34
// MB/s "peak transfer rate" (16 disks => 37.5 MB/s aggregate).
func HP97560() *Spec {
	return &Spec{
		Name:                "HP97560",
		Cylinders:           1962,
		Heads:               19,
		SectorsPerTrack:     72,
		SectorSize:          512,
		RPM:                 4002,
		HeadSwitch:          1 * time.Millisecond,
		Seek:                HP97560Seek,
		TrackSkew:           5,  // ceil(1.0 ms / 208 us per sector)
		CylinderSkew:        13, // with TrackSkew totals 18 slots ~= seek(1)
		ControllerOverhead:  1100 * time.Microsecond,
		CacheSegmentSectors: 256, // 128 KB read-ahead segment
	}
}

// HP97560Seek is the published piecewise seek curve for the HP 97560.
func HP97560Seek(d int) time.Duration {
	if d <= 0 {
		return 0
	}
	var ms float64
	if d <= 383 {
		ms = 3.24 + 0.400*math.Sqrt(float64(d))
	} else {
		ms = 8.00 + 0.008*float64(d)
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// SectorTime returns the time one sector passes under the head.
func (s *Spec) SectorTime() time.Duration {
	return time.Duration(60e9 / (s.RPM * float64(s.SectorsPerTrack)))
}

// RevTime returns one rotation period (SectorsPerTrack * SectorTime, so
// that slot arithmetic is exact in integer nanoseconds).
func (s *Spec) RevTime() time.Duration {
	return s.SectorTime() * time.Duration(s.SectorsPerTrack)
}

// TotalSectors returns the drive's capacity in sectors.
func (s *Spec) TotalSectors() int64 {
	return int64(s.Cylinders) * int64(s.Heads) * int64(s.SectorsPerTrack)
}

// Capacity returns the drive's capacity in bytes.
func (s *Spec) Capacity() int64 { return s.TotalSectors() * int64(s.SectorSize) }

// MediaRate returns the instantaneous media transfer rate in bytes/sec
// while the head is over a track.
func (s *Spec) MediaRate() float64 {
	return float64(s.SectorSize) / s.SectorTime().Seconds()
}

// SustainedRate returns the long-run sequential transfer rate in
// bytes/sec, accounting for head switches and cylinder-to-cylinder seeks
// hidden behind skew: per cylinder, Heads revolutions plus the skew slots
// consumed at each track and cylinder boundary.
func (s *Spec) SustainedRate() float64 {
	st := s.SectorTime()
	perCyl := time.Duration(s.Heads)*s.RevTime() +
		time.Duration((s.Heads-1)*s.TrackSkew)*st +
		time.Duration(s.TrackSkew+s.CylinderSkew)*st
	bytesPerCyl := float64(s.Heads * s.SectorsPerTrack * s.SectorSize)
	return bytesPerCyl / perCyl.Seconds()
}

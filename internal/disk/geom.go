package disk

import (
	"fmt"

	"ddio/internal/sim"
)

// geom implements the timing mathematics of the mechanical model. It is
// deliberately free of simulation state: all functions are pure in
// (time, position) so both the foreground request path and the lazy
// read-ahead accounting can share them.
type geom struct {
	spec  *Spec
	st    sim.Time // sector time, ns
	rev   sim.Time // st * SectorsPerTrack
	spt   int64
	heads int64
}

func newGeom(s *Spec) *geom {
	st := sim.Time(s.SectorTime())
	return &geom{
		spec:  s,
		st:    st,
		rev:   st * sim.Time(s.SectorsPerTrack),
		spt:   int64(s.SectorsPerTrack),
		heads: int64(s.Heads),
	}
}

// Decompose maps an LBN to its cylinder, head, and sector.
func (g *geom) decompose(lbn int64) (cyl, head, sector int64) {
	perCyl := g.heads * g.spt
	cyl = lbn / perCyl
	rem := lbn % perCyl
	return cyl, rem / g.spt, rem % g.spt
}

// compose is the inverse of decompose.
func (g *geom) compose(cyl, head, sector int64) int64 {
	return (cyl*g.heads+head)*g.spt + sector
}

// slot returns the rotational slot index ([0, spt)) at which the given
// sector physically sits, after track and cylinder skewing.
func (g *geom) slot(cyl, head, sector int64) int64 {
	track := cyl*g.heads + head
	skew := track*int64(g.spec.TrackSkew) + cyl*int64(g.spec.CylinderSkew)
	return (sector + skew) % g.spt
}

// nextSlotStart returns the earliest time >= t at which rotational slot k
// begins to pass under the heads. The platter angle is a pure function of
// absolute time: rotation never stops.
func (g *geom) nextSlotStart(t sim.Time, k int64) sim.Time {
	target := sim.Time(k) * g.st
	tin := t % g.rev
	wait := (target - tin) % g.rev
	if wait < 0 {
		wait += g.rev
	}
	return t + wait
}

// walk computes the completion time of a sequential media transfer of
// sectors [lbn, lbn+n) beginning no earlier than t, assuming the arm is
// already at the cylinder of lbn with its rotational position given by
// absolute time. Head switches and single-cylinder seeks encountered
// along the way are charged; skew makes them (mostly) rotation-neutral.
// It returns the completion time and the final cylinder.
func (g *geom) walk(t sim.Time, lbn, n int64) (end sim.Time, endCyl int64) {
	if n <= 0 {
		c, _, _ := g.decompose(lbn)
		return t, c
	}
	cyl, head, sec := g.decompose(lbn)
	curCyl, curHead := cyl, head
	first := true
	for n > 0 {
		cyl, head, sec = g.decompose(lbn)
		if !first {
			if cyl != curCyl {
				t += sim.Time(g.spec.Seek(int(abs64(cyl - curCyl))))
			} else if head != curHead {
				t += sim.Time(g.spec.HeadSwitch)
			}
		}
		curCyl, curHead = cyl, head
		run := g.spt - sec
		if run > n {
			run = n
		}
		start := g.nextSlotStart(t, g.slot(cyl, head, sec))
		t = start + sim.Time(run)*g.st
		lbn += run
		n -= run
		first = false
	}
	return t, curCyl
}

// access computes the completion time of a media transfer of sectors
// [lbn, lbn+n) starting no earlier than t with the arm currently at
// cylinder fromCyl: an initial seek if needed, then a sequential walk.
func (g *geom) access(fromCyl int64, t sim.Time, lbn, n int64) (end sim.Time, endCyl int64) {
	cyl, _, _ := g.decompose(lbn)
	if cyl != fromCyl {
		t += sim.Time(g.spec.Seek(int(abs64(cyl - fromCyl))))
	}
	return g.walk(t, lbn, n)
}

func (g *geom) check(lbn, n int64) {
	if lbn < 0 || n < 0 || lbn+n > g.spec.TotalSectors() {
		panic(fmt.Sprintf("disk: access [%d,%d) outside device of %d sectors",
			lbn, lbn+n, g.spec.TotalSectors()))
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

package trace

import (
	"strings"
	"testing"
)

// TestNilRecorderIsInert: every record method and every derived view
// must be a safe no-op on a nil recorder — that is the whole
// zero-cost-when-disabled contract.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.DiskService("d0", 0, 10, false, 512, 1)
	r.DiskQueue("d0", 0, 1)
	r.DiskSeek("d0", 0, 3)
	r.RequestStart("IOP0", 1, 0, false, 8)
	r.RequestEnd("IOP0", 1, 0, 5)
	r.PoolBusy("svc", 0, 5)
	r.Buffer("IOP0", 0, 1, 4)
	r.NetMsg("CP0", "IOP0", 0, 64)
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Len() != 0 || r.Events() != nil || r.End() != 0 {
		t.Fatal("nil recorder holds state")
	}
	if u := r.MeanDiskUtilization(0); u != 0 {
		t.Fatalf("nil recorder utilization = %v", u)
	}
	if tl := r.DiskTimelines(0); len(tl) != 0 {
		t.Fatalf("nil recorder timelines = %v", tl)
	}
}

// TestSeqOrder: events carry consecutive seq numbers in record order.
func TestSeqOrder(t *testing.T) {
	r := New()
	r.NetMsg("a", "b", 5, 1)
	r.DiskSeek("d0", 7, 2)
	r.DiskService("d0", 7, 9, true, 512, 0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if evs[2].Kind != KindDiskService || !evs[2].Write || evs[2].Bytes != 512 {
		t.Fatalf("disk event fields wrong: %+v", evs[2])
	}
}

// TestEmitters: JSONL carries one object per line with stable keys; CSV
// carries the header plus one row per event.
func TestEmitters(t *testing.T) {
	r := New()
	r.NetMsg("CP0", "IOP1", 1000, 64)
	r.DiskService("d0", 2000, 5000, true, 4096, 2)

	var jb strings.Builder
	if err := r.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(jb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("JSONL lines = %d", len(lines))
	}
	if want := `{"seq":0,"kind":"msg","t_ns":1000,"node":"CP0","peer":"IOP1","bytes":64}`; lines[0] != want {
		t.Fatalf("JSONL line 0:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"kind":"disk"`) || !strings.Contains(lines[1], `"write":true`) {
		t.Fatalf("JSONL line 1: %s", lines[1])
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	csv := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if len(csv) != 3 {
		t.Fatalf("CSV lines = %d", len(csv))
	}
	if csv[0] != strings.TrimRight(csvHeader, "\n") {
		t.Fatalf("CSV header: %s", csv[0])
	}
	if want := "1,disk,2000,5000,d0,,1,4096,2,,"; csv[2] != want {
		t.Fatalf("CSV row:\n got %s\nwant %s", csv[2], want)
	}
}

// TestEmittersKeepLegitimateZeros: a kind's fields are emitted even at
// zero (request id 0, queue depth 0), while fields the kind does not
// use stay absent — consumers must be able to tell "zero" from "not
// applicable".
func TestEmittersKeepLegitimateZeros(t *testing.T) {
	r := New()
	r.RequestStart("IOP0", 0, 100, false, 0) // first request: id 0, 0 payload
	r.DiskService("d0", 200, 300, false, 512, 0)

	var jb strings.Builder
	if err := r.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(jb.String(), "\n"), "\n")
	if want := `{"seq":0,"kind":"req-start","t_ns":100,"node":"IOP0","write":false,"bytes":0,"id":0}`; lines[0] != want {
		t.Fatalf("JSONL req-start:\n got %s\nwant %s", lines[0], want)
	}
	if !strings.Contains(lines[1], `"depth":0`) {
		t.Fatalf("JSONL disk lost its zero depth: %s", lines[1])
	}
	if strings.Contains(lines[1], `"id"`) || strings.Contains(lines[0], `"end_ns"`) {
		t.Fatalf("kind-unused fields leaked:\n%s\n%s", lines[0], lines[1])
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(cb.String(), "\n"), "\n")
	if want := "0,req-start,100,,IOP0,,0,0,,,0"; rows[1] != want {
		t.Fatalf("CSV req-start:\n got %s\nwant %s", rows[1], want)
	}
	if want := "1,disk,200,300,d0,,0,512,0,,"; rows[2] != want {
		t.Fatalf("CSV disk:\n got %s\nwant %s", rows[2], want)
	}
}

// TestDiskTimelinesAndUtilization on a hand-built trace: two disks,
// one busy half the horizon, one a quarter.
func TestDiskTimelinesAndUtilization(t *testing.T) {
	r := New()
	r.DiskService("d0", 0, 500, false, 512, 0)
	r.DiskService("d1", 100, 350, false, 512, 0)
	r.DiskService("d0", 900, 1000, false, 512, 0) // sets End() = 1000
	tls := r.DiskTimelines(0)
	if len(tls) != 2 || tls[0].Name != "d0" || tls[1].Name != "d1" {
		t.Fatalf("timelines = %+v", tls)
	}
	if got := tls[0].Util; got != 0.6 {
		t.Fatalf("d0 util = %v, want 0.6", got)
	}
	if got := tls[1].Util; got != 0.25 {
		t.Fatalf("d1 util = %v, want 0.25", got)
	}
	if got := r.MeanDiskUtilization(0); got != (0.6+0.25)/2 {
		t.Fatalf("mean util = %v", got)
	}
}

// TestIdleRegisteredDiskCountsInMean: a registered disk that never
// serves a request still gets a timeline row and drags the mean down —
// one busy disk among idle ones must not report 100% utilization.
func TestIdleRegisteredDiskCountsInMean(t *testing.T) {
	r := New()
	r.RegisterDisk("d0")
	r.RegisterDisk("d1")
	r.RegisterDisk("d2")
	r.RegisterDisk("d3")
	r.DiskService("d1", 0, 1000, false, 512, 0) // only d1 ever works
	tls := r.DiskTimelines(0)
	if len(tls) != 4 {
		t.Fatalf("timelines = %d rows, want 4 (idle disks included)", len(tls))
	}
	if tls[0].Name != "d0" || tls[0].Util != 0 || len(tls[0].Busy) != 0 {
		t.Fatalf("idle d0 row = %+v", tls[0])
	}
	if tls[1].Util != 1.0 {
		t.Fatalf("d1 util = %v, want 1", tls[1].Util)
	}
	if got := r.MeanDiskUtilization(0); got != 0.25 {
		t.Fatalf("mean util = %v, want 0.25", got)
	}
	// An unregistered latecomer still appears, after the registered set.
	r.DiskService("dX", 0, 500, false, 512, 0)
	if tls = r.DiskTimelines(0); len(tls) != 5 || tls[4].Name != "dX" {
		t.Fatalf("unregistered disk handling: %+v", tls)
	}
}

// TestUtilizationSeries: binning splits intervals proportionally.
func TestUtilizationSeries(t *testing.T) {
	r := New()
	// One disk, busy [0,100) and [150,200): horizon 200.
	r.DiskService("d0", 0, 100, false, 512, 0)
	r.DiskService("d0", 150, 200, false, 512, 0)
	s := r.UtilizationSeries(100)
	// Bin 0: fully busy. Bin 1: half busy. Horizon 200 = exactly 2 bins.
	if len(s.Y) != 2 {
		t.Fatalf("series length = %d, want 2: %v", len(s.Y), s.Y)
	}
	if s.Y[0] != 1.0 || s.Y[1] != 0.5 {
		t.Fatalf("utilization bins = %v, want [1 0.5]", s.Y)
	}

	// A horizon that is not a bin multiple: the final bin is divided by
	// its covered width, so a fully-busy tail reads 1.0, not a dip.
	r2 := New()
	r2.DiskService("d0", 0, 150, false, 512, 0)
	s2 := r2.UtilizationSeries(100)
	if len(s2.Y) != 2 || s2.Y[0] != 1.0 || s2.Y[1] != 1.0 {
		t.Fatalf("partial-bin utilization = %v, want [1 1]", s2.Y)
	}
}

// TestBandwidthSeries: bytes spread over interval bins scale to B/s.
func TestBandwidthSeries(t *testing.T) {
	r := New()
	r.DiskService("d0", 0, 1e9, false, 1000, 0) // 1000 B over 1 s
	s := r.BandwidthSeries(5e8)                 // two 0.5 s bins (plus edge bin)
	if s.Y[0] != 1000 || s.Y[1] != 1000 {
		t.Fatalf("bandwidth bins = %v, want 1000 B/s each", s.Y[:2])
	}
}

// TestRequestLatencies summarizes end-start spans in seconds.
func TestRequestLatencies(t *testing.T) {
	r := New()
	r.RequestEnd("IOP0", 0, 0, 2e9)
	r.RequestEnd("IOP0", 1, 1e9, 2e9)
	sum := r.RequestLatencies()
	if sum.N != 2 || sum.Mean != 1.5 || sum.Min != 1 || sum.Max != 2 {
		t.Fatalf("latency summary = %+v", sum)
	}
}

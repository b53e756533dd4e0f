package exp

import (
	"fmt"
	"strings"
	"testing"

	"ddio/internal/pfs"
	"ddio/internal/stats"
	"ddio/internal/trace"
)

// fig3aStyle returns a scaled-down Figure-3a configuration (the paper's
// request-bound worst case: random-blocks layout, 8-byte records,
// cyclic pattern) — the workload where the "disks stay busy under
// disk-directed I/O" mechanism is starkest.
func fig3aStyle(m Method) Config {
	cfg := DefaultConfig()
	cfg.Method = m
	cfg.Pattern = "rc"
	cfg.RecordSize = 8
	cfg.Layout = pfs.RandomBlocks
	cfg.FileBytes = MiB / 4
	cfg.Seed = 7
	cfg.Verify = false
	return cfg
}

// TestTracingDoesNotPerturbRun: a traced run must fire the identical
// event count, finish at the identical virtual time, and report the
// identical throughput as an untraced run of the same Config — the
// recorder is passive by contract.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	for _, m := range []Method{TraditionalCaching, DiskDirectedSort, TwoPhase} {
		cfg := fig3aStyle(m)
		plain, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		traced, rec, err := TracedRun(cfg)
		if err != nil {
			t.Fatalf("%v traced: %v", m, err)
		}
		if plain.Events != traced.Events {
			t.Errorf("%v: events %d (untraced) != %d (traced)", m, plain.Events, traced.Events)
		}
		if plain.Elapsed != traced.Elapsed {
			t.Errorf("%v: elapsed %v != %v", m, plain.Elapsed, traced.Elapsed)
		}
		if plain.MBps != traced.MBps {
			t.Errorf("%v: MBps %v != %v", m, plain.MBps, traced.MBps)
		}
		if rec.Len() == 0 {
			t.Errorf("%v: traced run recorded nothing", m)
		}
	}
}

// TestTraceDeterministic: identical seeds must yield byte-identical
// JSONL traces — the trace is a pure function of the Config.
func TestTraceDeterministic(t *testing.T) {
	for _, m := range []Method{TraditionalCaching, DiskDirectedSort} {
		jsonl := func() string {
			_, rec, err := TracedRun(fig3aStyle(m))
			if err != nil {
				t.Fatalf("%v: %v", m, err)
			}
			var b strings.Builder
			if err := rec.WriteJSONL(&b); err != nil {
				t.Fatal(err)
			}
			return b.String()
		}
		a, b := jsonl(), jsonl()
		if a != b {
			t.Fatalf("%v: identical seeds produced different JSONL traces", m)
		}
		if a == "" {
			t.Fatalf("%v: empty trace", m)
		}
	}
}

// TestDiskUtilizationDDExceedsTC asserts the paper's mechanism claim on
// the Figure-3a workload: disk-directed I/O keeps the disks busy
// (double-buffered, schedule-ordered transfers) while traditional
// caching leaves them idle between cache requests. The CI plot-smoke
// job renders the same comparison as SVG timelines.
func TestDiskUtilizationDDExceedsTC(t *testing.T) {
	_, ddRec, err := TracedRun(fig3aStyle(DiskDirectedSort))
	if err != nil {
		t.Fatal(err)
	}
	_, tcRec, err := TracedRun(fig3aStyle(TraditionalCaching))
	if err != nil {
		t.Fatal(err)
	}
	dd := ddRec.MeanDiskUtilization(0)
	tc := tcRec.MeanDiskUtilization(0)
	t.Logf("mean disk utilization: ddio-sort %.2f, tc %.2f", dd, tc)
	if dd <= tc {
		t.Fatalf("disk-directed utilization %.2f not above traditional caching %.2f", dd, tc)
	}
	if dd < 0.5 {
		t.Errorf("disk-directed utilization %.2f unexpectedly low (want >= 0.5)", dd)
	}
	if tc > 0.5 {
		t.Errorf("traditional-caching utilization %.2f unexpectedly high (want <= 0.5)", tc)
	}
}

// TestTraceCoversAllLayers: one traced TC run must carry records from
// every instrumented layer — disks, network, server requests, cache
// occupancy, and the request handlers' pool spans.
func TestTraceCoversAllLayers(t *testing.T) {
	_, rec, err := TracedRun(fig3aStyle(TraditionalCaching))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind.String()]++
	}
	for _, k := range []string{"disk", "queue", "seek", "req-start", "req-end", "pool", "buffer", "msg"} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in trace (kinds: %v)", k, kinds)
		}
	}
	// Request latencies must summarize to something sane.
	if sum := rec.RequestLatencies(); sum.N == 0 || sum.Mean <= 0 {
		t.Errorf("request latency summary = %+v", sum)
	}
}

// TestPoolSpansOnePerRequest: every file-system request runs on its own
// handler thread, which records exactly one pool span. TC's handlers
// (tc-svc, on TC and two-phase runs) also serve prefetches; DDIO's
// (dd-work) serve one collective request each.
func TestPoolSpansOnePerRequest(t *testing.T) {
	for _, m := range []Method{TraditionalCaching, DiskDirected, TwoPhase} {
		cfg := fig3aStyle(m)
		cfg.FileBytes = MiB / 2
		res, rec, err := TracedRun(cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var tcSpans, ddSpans int64
		for _, e := range rec.Events() {
			if e.Kind != trace.KindPoolBusy {
				continue
			}
			switch {
			case strings.HasPrefix(e.Node, "tc-svc:"):
				tcSpans++
			case strings.HasPrefix(e.Node, "dd-work:"):
				ddSpans++
			default:
				t.Fatalf("%v: pool span on unexpected node %q", m, e.Node)
			}
		}
		if want := res.TC.Requests + res.TC.Prefetches; tcSpans != want {
			t.Errorf("%v: %d tc-svc spans, want requests+prefetches = %d", m, tcSpans, want)
		}
		if want := res.DD.Requests; ddSpans != want {
			t.Errorf("%v: %d dd-work spans, want requests = %d", m, ddSpans, want)
		}
		if tcSpans+ddSpans == 0 {
			t.Errorf("%v: no pool spans at all", m)
		}
	}
}

// TestLongCSV: the tidy emitter carries one row per measured cell with
// the full trial statistics.
func TestLongCSV(t *testing.T) {
	spec := &SweepSpec{
		Name:   "long-test",
		Title:  "long CSV shape test",
		Axis:   AxisCPs,
		Values: []int{1, 2},
		IOPs:   2, Disks: 2,
		Layout:  "contiguous",
		Methods: []string{"ddio"},
		Patterns: []string{
			"ra", "rb",
		},
	}
	res, err := spec.RunFull(Options{Trials: 2, FileBytes: MiB / 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := res.LongCSV()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 1+2*2 { // header + values × (methods×patterns)
		t.Fatalf("long CSV has %d lines:\n%s", len(lines), got)
	}
	if want := "sweep,figure,axis,value,method,pattern,n,mean_mbps,stddev,cv,min_mbps,max_mbps,max_bw_mbps"; lines[0] != want {
		t.Fatalf("header = %s", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 13 {
			t.Fatalf("row has %d fields: %s", len(fields), line)
		}
		if fields[0] != "long-test" || fields[2] != "cps" || fields[4] != "ddio" {
			t.Fatalf("unexpected row: %s", line)
		}
		if fields[6] != "2" {
			t.Fatalf("row n = %s, want 2: %s", fields[6], line)
		}
	}
	// Row order: values outermost, then method×pattern columns.
	if !strings.HasPrefix(lines[1], "long-test,long-test,cps,1,ddio,ra,") ||
		!strings.HasPrefix(lines[4], "long-test,long-test,cps,2,ddio,rb,") {
		t.Fatalf("row order wrong:\n%s", got)
	}
}

// TestLongCSVPatternAxis: on the pattern axis the value column holds
// each row's pattern, cells run [pattern][method], and every row carries
// the fixed machine's ceiling, though the table has no max-bw column.
func TestLongCSVPatternAxis(t *testing.T) {
	spec := tinyPatternSpec()
	tab, cfgs, err := spec.Expand(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := &SweepResult{Spec: spec, Table: tab, CellStats: [][]stats.Summary{
		{{N: 1, Mean: 1}, {N: 1, Mean: 2}},
		{{N: 1, Mean: 3}, {N: 1, Mean: 4}},
	}}
	ceiling := fmt.Sprintf("%.3f", cfgs[0].MaxBandwidthMBps())
	want := []string{
		"sweep,figure,axis,value,method,pattern,n,mean_mbps,stddev,cv,min_mbps,max_mbps,max_bw_mbps",
		"figT,figT,pattern,rb,tc,rb,1,1.000,0.0000,0.0000,0.000,0.000," + ceiling,
		"figT,figT,pattern,rb,ddio,rb,1,2.000,0.0000,0.0000,0.000,0.000," + ceiling,
		"figT,figT,pattern,rc,tc,rc,1,3.000,0.0000,0.0000,0.000,0.000," + ceiling,
		"figT,figT,pattern,rc,ddio,rc,1,4.000,0.0000,0.0000,0.000,0.000," + ceiling,
	}
	if got := res.LongCSV(); got != strings.Join(want, "\n")+"\n" {
		t.Fatalf("long CSV:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

// TestCriticalPathsCoverRealRun: on a real traced run the critical-path
// decomposition is total — every request's four buckets (disk, retry,
// service, queue) sum exactly to its end-to-end latency, and the
// request count matches the latency summary.
func TestCriticalPathsCoverRealRun(t *testing.T) {
	for _, m := range []Method{TraditionalCaching, DiskDirectedSort} {
		_, rec, err := TracedRun(fig3aStyle(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		paths := rec.CriticalPaths()
		if len(paths) == 0 {
			t.Fatalf("%v: no critical paths from a traced run", m)
		}
		if lat := rec.RequestLatencies(); lat.N != len(paths) {
			t.Fatalf("%v: %d paths vs %d latencies", m, len(paths), lat.N)
		}
		var disk int64
		for _, p := range paths {
			sum := p.Disk + p.Retry + p.Service + p.Queue
			if sum != p.End-p.Start {
				t.Fatalf("%v: request %s/%d buckets sum %d != latency %d",
					m, p.Node, p.ID, sum, p.End-p.Start)
			}
			if p.Disk < 0 || p.Retry < 0 || p.Service < 0 || p.Queue < 0 {
				t.Fatalf("%v: negative bucket in %+v", m, p)
			}
			disk += p.Disk
		}
		if disk == 0 {
			t.Fatalf("%v: no request overlapped any disk service", m)
		}
	}
}

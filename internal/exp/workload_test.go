package exp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ddio/internal/workload"
)

// skewSpec is the ISSUE's headline DSL workload: a skewed, mixed
// read/write stream with open Poisson arrivals.
func skewSpec() *workload.Spec {
	frac := 0.8
	return &workload.Spec{
		Name: "skew-open",
		Phases: []workload.Phase{{
			Pattern:      workload.PatternSkew,
			Requests:     96,
			Alpha:        1.2,
			ReadFraction: &frac,
			Arrival:      "poisson",
			RatePerSec:   2000,
		}},
	}
}

// traceSpec loads the checked-in sample trace.
func traceSpec(t *testing.T) *workload.Spec {
	t.Helper()
	s, err := workload.LoadTrace("../workload/testdata/sample.csv")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadAllMethods drives a replayed trace and a DSL-defined
// skewed open-arrival workload end to end through all three methods,
// with full byte verification.
func TestWorkloadAllMethods(t *testing.T) {
	specs := map[string]*workload.Spec{
		"trace": traceSpec(t),
		"skew":  skewSpec(),
	}
	for name, spec := range specs {
		for _, method := range []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase} {
			cfg := smokeCfg()
			cfg.Method = method
			cfg.Workload = spec
			r, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%s: %v", method, name, err)
			}
			if r.VerifyErrors > 0 {
				t.Errorf("%v/%s: %d verify errors", method, name, r.VerifyErrors)
			}
			if r.MBps <= 0 || r.MovedBytes <= 0 {
				t.Errorf("%v/%s: throughput %v over %d bytes", method, name, r.MBps, r.MovedBytes)
			}
			t.Logf("%v/%-5s %7.3f MB/s elapsed=%v moved=%d events=%d",
				method, name, r.MBps, r.Elapsed, r.MovedBytes, r.Events)
		}
	}
}

// TestWorkloadMultiPhase mixes collective, synthetic, and trace phases
// in one spec: phases run in order under every method.
func TestWorkloadMultiPhase(t *testing.T) {
	frac := 0.5
	spec := &workload.Spec{
		Name: "mixed",
		Phases: []workload.Phase{
			{Pattern: "rb"}, // collective whole-file read
			{Pattern: workload.PatternHotspot, Requests: 40, HotFraction: 0.1, HotWeight: 0.9,
				ReadFraction: &frac, Arrival: "closed", Think: 200 * time.Microsecond},
			{Pattern: workload.PatternZipf, Requests: 32, Alpha: 1.5, RecordSize: 4096},
			{Pattern: "wb"}, // collective whole-file write
		},
	}
	for _, method := range []Method{TraditionalCaching, DiskDirected, TwoPhase} {
		cfg := smokeCfg()
		cfg.Method = method
		cfg.Workload = spec
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if r.VerifyErrors > 0 {
			t.Errorf("%v: %d verify errors", method, r.VerifyErrors)
		}
		t.Logf("%v mixed %7.3f MB/s elapsed=%v events=%d", method, r.MBps, r.Elapsed, r.Events)
	}
}

// TestWorkloadDeterministic: identical seeds resolve and run to
// identical results, and distinct seeds perturb the sampled streams.
func TestWorkloadDeterministic(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirectedSort
	cfg.Workload = skewSpec()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Events != b.Events || a.MovedBytes != b.MovedBytes {
		t.Fatalf("same seed diverged: %v/%d/%d vs %v/%d/%d",
			a.Elapsed, a.Events, a.MovedBytes, b.Elapsed, b.Events, b.MovedBytes)
	}
	cfg.Seed = 99
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Elapsed == a.Elapsed && c.Events == a.Events {
		t.Errorf("different seed produced identical run (%v, %d events)", a.Elapsed, a.Events)
	}
}

// TestWorkloadSweepDeterministicAcrossWorkers: the wl-smoke CI preset
// must produce byte-identical tables and JSON for any worker count (the
// SVG figure is a pure function of the result, so it follows).
func TestWorkloadSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (string, []byte) {
		s, ok := LookupPreset("wl-smoke")
		if !ok {
			t.Fatal("wl-smoke preset missing")
		}
		res, err := s.RunFull(Options{Trials: 1, FileBytes: MiB, Seed: 42, Verify: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return res.Table.Format(), data
	}
	t8, j8 := run(8)
	t1, j1 := run(1)
	if t8 != t1 {
		t.Error("wl-smoke table differs between 8 workers and sequential")
	}
	if string(j8) != string(j1) {
		t.Error("wl-smoke JSON differs between 8 workers and sequential")
	}
	if !strings.Contains(t8, "req-per-sec") {
		t.Errorf("wl-smoke table missing the wlrate row label:\n%s", t8)
	}
}

// TestWorkloadTracedRunDeterministic: a traced trace-replay run is
// reproducible event for event — the replay resolves identically and
// the simulation fires the identical sequence.
func TestWorkloadTracedRunDeterministic(t *testing.T) {
	run := func() (*Result, string) {
		cfg := smokeCfg()
		cfg.Method = DiskDirectedSort
		cfg.Workload = traceSpec(t)
		res, rec, err := TracedRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return res, b.String()
	}
	r1, t1 := run()
	r2, t2 := run()
	if r1.Elapsed != r2.Elapsed || r1.Events != r2.Events || r1.MovedBytes != r2.MovedBytes {
		t.Errorf("timing differs: %v/%d/%d vs %v/%d/%d",
			r1.Elapsed, r1.Events, r1.MovedBytes, r2.Elapsed, r2.Events, r2.MovedBytes)
	}
	if t1 != t2 {
		t.Error("identical trace-replay runs produced different traces")
	}
	if len(t1) == 0 {
		t.Error("trace-replay run recorded no events")
	}
}

// TestWLRateAxis: the wlrate axis re-rates every poisson phase on a
// clone per cell, leaves the template untouched, and demands a template
// with an open phase.
func TestWLRateAxis(t *testing.T) {
	tmpl := skewSpec()
	s := &SweepSpec{
		Name: "t", Title: "t", Axis: AxisWLRate, Values: []int{100, 400},
		Layout: "random-blocks", Methods: []string{"ddio"}, Patterns: []string{"rb"},
		Workload: tmpl,
	}
	_, cfgs, err := s.Expand(Options{Trials: 1, FileBytes: MiB, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 {
		t.Fatalf("%d cells", len(cfgs))
	}
	for i, want := range []float64{100, 400} {
		if got := cfgs[i].Workload.Phases[0].RatePerSec; got != want {
			t.Errorf("cell %d rate = %v, want %v", i, got, want)
		}
	}
	if tmpl.Phases[0].RatePerSec != 2000 {
		t.Errorf("axis mutated the shared template: %v", tmpl.Phases[0].RatePerSec)
	}
	closed := &SweepSpec{
		Name: "t", Title: "t", Axis: AxisWLRate, Values: []int{100},
		Layout: "random-blocks", Methods: []string{"ddio"}, Patterns: []string{"rb"},
		Workload: &workload.Spec{Phases: []workload.Phase{{Pattern: workload.PatternUniform, Requests: 4}}},
	}
	if err := closed.Validate(); err == nil {
		t.Error("wlrate axis without a poisson phase accepted")
	}
	if err := (&SweepSpec{
		Name: "t", Title: "t", Axis: AxisWLRate, Values: []int{100},
		Layout: "random-blocks", Methods: []string{"ddio"}, Patterns: []string{"rb"},
	}).Validate(); err == nil {
		t.Error("wlrate axis without a workload template accepted")
	}
}

// TestOptionsWorkloadFoldsIntoSpec: an options workload reaches a sweep
// only as its workload template. On a one-pattern spec the sweep then
// reports request latency like any workload sweep, the spec's own
// template keeps precedence, and a spec whose rows or columns vary the
// pattern is rejected by name instead of repeating one number per row.
func TestOptionsWorkloadFoldsIntoSpec(t *testing.T) {
	o := Options{Trials: 1, FileBytes: MiB, Seed: 42, Verify: true, Workload: skewSpec()}
	for _, name := range []string{"fig5-paper", "fig3b-paper"} {
		spec, _ := LookupPreset(name)
		_, err := spec.RunFull(o)
		var specErr *SpecError
		if !errors.As(err, &specErr) || specErr.Spec != name || specErr.Field != "workload" {
			t.Errorf("%s with a workload: error %v, want a *SpecError naming the spec's workload", name, err)
		}
	}

	spec, _ := LookupPreset("surface-smoke")
	res, err := spec.RunFull(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Workload != o.Workload || res.Table.Latency == nil {
		t.Fatalf("options workload not folded into the spec: spec workload %v, latency %v",
			res.Spec.Workload, res.Table.Latency)
	}
	if spec.Workload != nil {
		t.Fatal("Resolve wrote the workload into the caller's spec")
	}

	own, _ := LookupPreset("wl-smoke")
	got, err := own.Resolve(o)
	if err != nil {
		t.Fatal(err)
	}
	if got != own {
		t.Fatal("a spec with its own workload template did not keep it")
	}
}

// TestTCMixedSubBlockStreamVerifies: reads and writes of 512-byte
// records sharing blocks under traditional caching. A write installs a
// cache frame without reading the disk; a read that hits that frame
// must see the disk's bytes under the unwritten part, not a zeroed
// frame.
func TestTCMixedSubBlockStreamVerifies(t *testing.T) {
	spec, err := workload.Parse([]byte(`{"phases":[{"pattern":"uniform","requests":256,` +
		`"read_fraction":0.5,"record_size":512,"arrival":"poisson","rate_per_sec":1000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FileBytes = 4 * MiB
	cfg.Workload = spec
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.VerifyErrors > 0 {
		t.Fatalf("%d verification errors", r.VerifyErrors)
	}
	if r.TC.Reads == 0 || r.TC.Writes == 0 {
		t.Fatalf("stream not mixed: %d reads, %d writes", r.TC.Reads, r.TC.Writes)
	}
}

// TestTwoPhaseZipfReadStreamVerifies: a read-only Zipf stream with mixed
// record sizes under two-phase I/O. Long and short records interleave in
// file order, so the conforming redistribution must find every record
// that covers a staged range, not only those whose end offsets happen
// to sort.
func TestTwoPhaseZipfReadStreamVerifies(t *testing.T) {
	spec, err := workload.Parse([]byte(`{"phases":[{"pattern":"zipf","requests":4096,"alpha":1.2,` +
		`"record_sizes":[512,4096,8192],"arrival":"poisson","rate_per_sec":1000}]}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Method = TwoPhase
	cfg.FileBytes = 4 * MiB
	cfg.Workload = spec
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.VerifyErrors > 0 {
		t.Fatalf("%d verification errors", r.VerifyErrors)
	}
}

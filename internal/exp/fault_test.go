package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ddio/internal/fault"
	"ddio/internal/pfs"
	"ddio/internal/sim"
)

// benchStyle returns the BenchmarkSimulatorEventRate configuration —
// the message-heavy run whose event count CI pins.
func benchStyle() Config {
	cfg := DefaultConfig()
	cfg.FileBytes = MiB / 2
	cfg.Method = TraditionalCaching
	cfg.Pattern = "rc"
	cfg.RecordSize = 8
	cfg.Verify = false
	return cfg
}

// smallFaulted returns a small faulted configuration with every fault
// model armed and a retry budget generous enough that nothing is lost.
func smallFaulted(m Method, pattern string) Config {
	cfg := DefaultConfig()
	cfg.Method = m
	cfg.Pattern = pattern
	cfg.NCP, cfg.NIOP, cfg.NDisks = 4, 4, 4
	cfg.FileBytes = MiB
	cfg.Layout = pfs.RandomBlocks
	cfg.Seed = 5
	cfg.Faults = &fault.Plan{
		Stragglers:        1,
		StragglerSlowdown: 2,
		DiskErrorRate:     0.05,
		MsgLossRate:       0.02,
		SpikeRate:         0.01,
		SpikeLatency:      50 * time.Microsecond,
		RetryLimit:        6,
	}
	return cfg
}

// TestNilAndZeroFaultPlanByteIdentical: a nil Faults pointer and an
// all-zero Plan must both leave the run bit-identical to a build
// without fault injection — same event count (the CI-pinned 888,040 of
// BenchmarkSimulatorEventRate), same virtual end time, and a byte-
// identical event trace.
func TestNilAndZeroFaultPlanByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark configuration")
	}
	base := benchStyle()
	run := func(plan *fault.Plan) (*Result, string) {
		cfg := base
		cfg.Faults = plan
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
	nilRes, nilTrace := run(nil)
	zeroRes, zeroTrace := run(&fault.Plan{})
	if nilRes.Events != 888040 {
		t.Errorf("nil-plan run fired %d events, want the pinned 888040", nilRes.Events)
	}
	if nilRes.Events != zeroRes.Events || nilRes.Elapsed != zeroRes.Elapsed || nilRes.MBps != zeroRes.MBps {
		t.Errorf("zero plan perturbed the run: events %d/%d elapsed %v/%v",
			nilRes.Events, zeroRes.Events, nilRes.Elapsed, zeroRes.Elapsed)
	}
	if nilTrace != zeroTrace {
		t.Error("zero plan produced a different event trace than a nil plan")
	}
	if nilRes.Faults != (FaultTotals{}) || zeroRes.Faults != (FaultTotals{}) {
		t.Errorf("fault totals nonzero for fault-free runs: %+v / %+v", nilRes.Faults, zeroRes.Faults)
	}
}

// TestFaultRecoveryAccounting runs each file system under all fault
// models and checks the no-silent-loss bookkeeping: every injected disk
// error is either recovered by a retry or counted as exhausted
// (DiskErrors == Retries + Exhausted), every dropped message is
// retransmitted (Resends == DroppedMsgs), and with a generous retry
// budget nothing is lost and every byte verifies.
func TestFaultRecoveryAccounting(t *testing.T) {
	for _, m := range []Method{TraditionalCaching, DiskDirectedSort, TwoPhase} {
		for _, pattern := range []string{"rb", "wb"} {
			res, err := Run(smallFaulted(m, pattern))
			if err != nil {
				t.Fatalf("%v/%s: %v", m, pattern, err)
			}
			f := res.Faults
			if f.DiskErrors == 0 {
				t.Errorf("%v/%s: no disk errors injected at 5%% over %d blocks", m, pattern, res.Config.NumBlocks())
			}
			if f.DiskErrors != f.Retries+f.Exhausted {
				t.Errorf("%v/%s: DiskErrors %d != Retries %d + Exhausted %d", m, pattern, f.DiskErrors, f.Retries, f.Exhausted)
			}
			if f.Exhausted != 0 {
				t.Errorf("%v/%s: %d requests lost despite retry budget 6", m, pattern, f.Exhausted)
			}
			if f.Recovered == 0 || f.Recovered > f.Retries {
				t.Errorf("%v/%s: Recovered %d out of range (Retries %d)", m, pattern, f.Recovered, f.Retries)
			}
			if f.Resends != f.DroppedMsgs {
				t.Errorf("%v/%s: Resends %d != DroppedMsgs %d", m, pattern, f.Resends, f.DroppedMsgs)
			}
			if f.DroppedMsgs == 0 {
				t.Errorf("%v/%s: no messages dropped at 2%%", m, pattern)
			}
			if res.VerifyErrors != 0 {
				t.Errorf("%v/%s: %d verification errors after full recovery", m, pattern, res.VerifyErrors)
			}
		}
	}
}

// TestFaultedRunDeterministic: identical seed + identical plan must
// reproduce the identical faulted run, trace and all.
func TestFaultedRunDeterministic(t *testing.T) {
	run := func() (*Result, string) {
		res, rec, err := TracedRun(smallFaulted(DiskDirectedSort, "rb"))
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
	if r1.Faults != r2.Faults {
		t.Errorf("fault totals differ across identical runs: %+v / %+v", r1.Faults, r2.Faults)
	}
	if r1.Elapsed != r2.Elapsed || r1.Events != r2.Events {
		t.Errorf("timing differs: %v/%d vs %v/%d", r1.Elapsed, r1.Events, r2.Elapsed, r2.Events)
	}
	if t1 != t2 {
		t.Error("identical faulted runs produced different traces")
	}
	if !strings.Contains(t1, `"fault"`) || !strings.Contains(t1, `"retry"`) {
		t.Error("faulted trace carries no fault/retry events")
	}
}

// TestDegradationSweepDeterministicAcrossWorkers: the CI smoke sweep
// must produce byte-identical JSON for any worker count.
func TestDegradationSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		s, ok := LookupPreset("degrade-smoke")
		if !ok {
			t.Fatal("degrade-smoke preset missing")
		}
		res, err := s.RunFull(Options{Trials: 1, FileBytes: MiB, Seed: 42, Verify: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.CellTime == nil {
			t.Fatal("degradation sweep carries no completion-time statistics")
		}
		data, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(4), run(1)
	if string(a) != string(b) {
		t.Error("degrade-smoke JSON differs between 4 workers and sequential")
	}
}

// TestFaultExhaustionIsTypedFailure: a run whose retry budget cannot
// absorb the error rate must surface a FaultLossError from the runner —
// typed, counting the losses — rather than silently degrading.
func TestFaultExhaustionIsTypedFailure(t *testing.T) {
	cfg := smallFaulted(TraditionalCaching, "rb")
	cfg.Faults = &fault.Plan{DiskErrorRate: 0.9, RetryLimit: 1}
	_, err := NewRunner(1, nil).RunAll([]Config{cfg}, nil)
	var loss *FaultLossError
	if !errors.As(err, &loss) {
		t.Fatalf("got %v, want a *FaultLossError", err)
	}
	if loss.Lost == 0 {
		t.Error("FaultLossError reports zero lost requests")
	}
	// The direct result must carry the same count, so library users who
	// bypass the runner still see the loss.
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Exhausted != loss.Lost {
		t.Errorf("Result.Faults.Exhausted %d != runner's Lost %d", res.Faults.Exhausted, loss.Lost)
	}
	if res.Faults.DiskErrors != res.Faults.Retries+res.Faults.Exhausted {
		t.Errorf("counting invariant broken under exhaustion: %+v", res.Faults)
	}
}

// TestRunnerIsolatesPanickedCell: one poisoned cell must not take down
// the sweep — its panic is recovered into a CellPanicError carrying the
// cell's config and stack, while every other cell's result lands. The
// panic may come from the cell's own code or from inside a simulated
// proc, which the kernel re-raises in the engine's Run caller.
func TestRunnerIsolatesPanickedCell(t *testing.T) {
	const poisoned = int64(3)
	// simulate runs one engine whose proc sleeps and then, in the
	// poisoned cell, panics with a parked peer left for Close to reclaim.
	simulate := func(poison bool) {
		e := sim.NewEngine()
		defer e.Close()
		gate := sim.NewCond(e, "gate")
		e.Go("peer", func(p *sim.Proc) { gate.Wait(p) })
		e.Go("cell", func(p *sim.Proc) {
			p.Sleep(time.Microsecond)
			if poison {
				panic("poisoned cell")
			}
			gate.Signal()
		})
		e.Run()
	}
	for _, inProc := range []bool{false, true} {
		run := func(cfg Config) (*Result, error) {
			if inProc {
				simulate(cfg.Seed == poisoned)
			} else if cfg.Seed == poisoned {
				panic("poisoned cell")
			}
			return &Result{Config: cfg, MBps: 1}, nil
		}

		cfgs := make([]Config, 5)
		for i := range cfgs {
			cfgs[i] = DefaultConfig()
			cfgs[i].Seed = int64(i)
		}
		for _, workers := range []int{1, 4} {
			done := map[int64]bool{}
			runner := NewRunner(workers, nil)
			runner.SetRunFunc(run)
			results, err := runner.RunAll(cfgs, func(i int, res *Result) {
				done[res.Config.Seed] = true
			})
			if results != nil {
				t.Errorf("inProc=%v workers=%d: got results despite a panicked cell", inProc, workers)
			}
			var cp *CellPanicError
			if !errors.As(err, &cp) {
				t.Fatalf("inProc=%v workers=%d: got %v, want a *CellPanicError", inProc, workers, err)
			}
			if cp.Config.Seed != poisoned || cp.Value != "poisoned cell" || !strings.Contains(cp.Stack, "panic") {
				t.Errorf("inProc=%v workers=%d: panic error lacks cell identity: seed %d value %v", inProc, workers, cp.Config.Seed, cp.Value)
			}
			for i := range cfgs {
				if s := int64(i); s != poisoned && !done[s] {
					t.Errorf("inProc=%v workers=%d: healthy cell seed %d never completed", inProc, workers, s)
				}
			}
		}
	}
}

// TestValidateFaultFields covers the fault-field error paths of
// Config.Validate and SweepSpec.Validate.
func TestValidateFaultFields(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Faults = &fault.Plan{DiskErrorRate: -0.1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative disk_error_rate accepted")
	}
	cfg.Faults = &fault.Plan{Stragglers: cfg.NDisks + 1, StragglerSlowdown: 2}
	if err := cfg.Validate(); err == nil {
		t.Error("straggler count above the disk count accepted")
	}
	cfg.Faults = &fault.Plan{DiskErrorRate: 0.1}
	if err := cfg.Validate(); err == nil {
		t.Error("disk errors without a retry budget accepted")
	}
	cfg.Faults = &fault.Plan{DiskErrorRate: 0.1, RetryLimit: 3}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}

	spec := func() *SweepSpec {
		return &SweepSpec{
			Name: "t", Title: "t", Axis: AxisFaultPM, Values: []int{0, 10},
			Layout: "contiguous", Methods: []string{"ddio"}, Patterns: []string{"ra"},
			Faults: &fault.Plan{RetryLimit: 3},
		}
	}
	if err := spec().Validate(); err != nil {
		t.Errorf("valid degradation spec rejected: %v", err)
	}
	s := spec()
	s.Faults = nil
	if err := s.Validate(); err == nil {
		t.Error("faultpm axis without a retry budget accepted")
	}
	s = spec()
	s.Values = []int{-1, 10}
	if err := s.Validate(); err == nil {
		t.Error("negative fault-axis value accepted")
	}
	s = spec()
	s.Axis = AxisStragglers
	if err := s.Validate(); err == nil {
		t.Error("stragglers axis without a slowdown factor accepted")
	}
	s = spec()
	s.Axis = AxisCPs
	s.Values = []int{0, 1}
	if err := s.Validate(); err == nil {
		t.Error("zero CPs accepted on a machine-shape axis")
	}
}

// TestFaultPlanSweepSpecRoundTrip is a property test: any valid plan
// embedded in a sweep spec must survive the JSON encode/parse cycle
// exactly — degradation sweeps re-run from spec files must mean the
// same faults.
func TestFaultPlanSweepSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	durations := []time.Duration{0, time.Microsecond, 50 * time.Microsecond, time.Millisecond, 7 * time.Millisecond}
	for i := 0; i < 100; i++ {
		p := &fault.Plan{
			DiskErrorRate:    float64(rng.Intn(90)) / 100,
			DiskErrorLatency: durations[rng.Intn(len(durations))],
			MsgLossRate:      float64(rng.Intn(90)) / 100,
			ResendTimeout:    durations[rng.Intn(len(durations))],
			SpikeRate:        float64(rng.Intn(90)) / 100,
			RetryLimit:       1 + rng.Intn(8),
			RetryBackoff:     durations[rng.Intn(len(durations))],
		}
		if p.SpikeRate > 0 {
			p.SpikeLatency = durations[1+rng.Intn(len(durations)-1)]
		}
		if rng.Intn(2) == 1 {
			p.Stragglers = 1 + rng.Intn(4)
			p.StragglerSlowdown = 1.5 + float64(rng.Intn(5))
			if rng.Intn(2) == 1 {
				p.SlowPeriod = 10 * time.Millisecond
				p.SlowWindow = durations[rng.Intn(len(durations))]
			}
		}
		spec := &SweepSpec{
			Name: fmt.Sprintf("rt-%d", i), Title: "round trip", Axis: AxisFaultPM,
			Values: []int{0, 10}, Layout: "contiguous",
			Methods: []string{"ddio"}, Patterns: []string{"ra"},
			Faults: p,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("case %d: generated an invalid plan: %v (%+v)", i, err, p)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := ParseSweepSpec(data)
		if err != nil {
			t.Fatalf("case %d: re-parse failed: %v\n%s", i, err, data)
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("case %d: spec did not round-trip:\nin:  %+v\nout: %+v", i, spec, back)
		}
	}
}

// TestOptionsFaultsFoldIntoSpec: a plan given as Options.Faults (figures
// -faults, the daemon's request faults) becomes the sweep's fault-plan
// template, so the result records it and times every cell exactly as
// the spec's own template would; the caller's spec is left alone, and a
// spec with its own template keeps it.
func TestOptionsFaultsFoldIntoSpec(t *testing.T) {
	plan := &fault.Plan{DiskErrorRate: 0.02, RetryLimit: 4, Stragglers: 1, StragglerSlowdown: 2}
	o := Options{Trials: 1, FileBytes: MiB, Seed: 42, Verify: true, Faults: plan}
	spec, _ := LookupPreset("surface-smoke")
	res, err := spec.RunFull(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spec.Faults != plan || res.CellTime == nil {
		t.Fatalf("options plan not folded into the spec: spec faults %v, cell time %v",
			res.Spec.Faults, res.CellTime)
	}
	if spec.Faults != nil {
		t.Fatal("Resolve wrote the plan into the caller's spec")
	}
	own := *spec
	own.Faults = plan
	want, err := own.RunFull(Options{Trials: 1, FileBytes: MiB, Seed: 42, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Table, want.Table) || !reflect.DeepEqual(res.CellTime, want.CellTime) {
		t.Fatal("options plan and spec template give different results")
	}

	deg, _ := LookupPreset("degrade-smoke")
	got, err := deg.Resolve(o)
	if err != nil {
		t.Fatal(err)
	}
	if got != deg {
		t.Fatal("a spec with its own fault template did not keep it")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"ddio/internal/exp"
)

// Reduced-scale copies of the workloads, small enough for unit tests.

func tinyTC() *simWorkload {
	w := tcRead8b()
	w.name = "tiny-tc"
	w.base.FileBytes = 32 << 10
	w.seed1Events = 0
	return w
}

func tinyDD() *simWorkload {
	w := ddWrite8b64()
	w.name = "tiny-dd"
	w.base.FileBytes = 32 << 10
	w.base.NCP, w.base.NIOP, w.base.NDisks = 8, 8, 8
	return w
}

func tinySweep() *sweepWorkload {
	w := fig3bSweep()
	w.name = "tiny-sweep"
	w.base.FileBytes = 256 << 10
	w.patterns = []string{"rb", "wc"}
	return w
}

// tinyServe names a new spec every other request.
func tinyServe() *serveWorkload {
	w := serveMixed()
	w.missEvery = 2
	return w
}

// past is a deadline that has passed: a pass then runs exactly one step.
var past = time.Unix(0, 0)

func TestSameSeedSameOps(t *testing.T) {
	tc := tcRead8b()
	if !reflect.DeepEqual(tc.config(7, 3), tc.config(7, 3)) || tc.config(7, 3).Seed != 10 {
		t.Errorf("op 3 of seed 7 should be the seed-10 run, deterministically")
	}
	if reflect.DeepEqual(tc.config(7, 3), tc.config(8, 3)) {
		t.Errorf("different seeds gave the same op")
	}
	sw := fig3bSweep()
	if got := len(sw.configs(1, 0)); got != 57 {
		t.Errorf("fig3b sweep has %d cells, want 19 patterns x 3 methods = 57", got)
	}
	if !reflect.DeepEqual(sw.configs(5, 2), sw.configs(5, 2)) || reflect.DeepEqual(sw.configs(5, 2), sw.configs(6, 2)) {
		t.Errorf("sweep configs must follow the seed")
	}

	type stream struct {
		reqs  []request
		seeds []int64
	}
	list := func(seed int64) stream {
		st := newStream(serveMixed(), seed)
		var out stream
		for i := 0; i < 500; i++ {
			out.reqs = append(out.reqs, st.next())
		}
		out.seeds = st.specSeeds
		return out
	}
	if !reflect.DeepEqual(list(3), list(3)) {
		t.Errorf("same seed gave different request lists")
	}
	if reflect.DeepEqual(list(3), list(4)) {
		t.Errorf("different seeds gave the same request list")
	}
}

func TestStreamRepeatsStayInWindow(t *testing.T) {
	w := serveMixed()
	w.window = 5
	st := newStream(w, 1)
	for i := 0; i < 5000; i++ {
		q := st.next()
		newest := len(st.specSeeds) - 1
		isNew := i%w.missEvery == 0
		switch {
		case isNew && q.spec != newest:
			t.Fatalf("request %d should introduce spec %d, names %d", i, newest, q.spec)
		case !isNew && newest > 0 && (q.spec >= newest || q.spec < newest-w.window):
			t.Fatalf("request %d repeats spec %d outside window [%d, %d)", i, q.spec, newest-w.window, newest)
		}
	}
}

func TestSmokeSimWorkloads(t *testing.T) {
	for _, w := range []*simWorkload{tinyTC(), tinyDD()} {
		s, warm, err := w.setup(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := &pass{next: 1}
		s.run(p, past)
		if warm.failed+p.failed != 0 || warm.ops+p.ops != 2 {
			t.Errorf("%s: %d of %d ops failed: %v %v", w.name, warm.failed+p.failed, warm.ops+p.ops, warm.errs, p.errs)
		}
		if p.next != 2 || p.sim.runs != 1 || p.sim.events == 0 {
			t.Errorf("%s: pass ran through op %d with %d runs, %d events", w.name, p.next, p.sim.runs, p.sim.events)
		}
		s.close()
	}
}

func TestSmokeSweep(t *testing.T) {
	w := tinySweep()
	s, warm, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p := &pass{}
	s.run(p, past)
	if warm.failed+p.failed != 0 || p.ops != 6 || len(p.sweepSecs) != 1 || p.next != 1 {
		t.Errorf("sweep pass: %d ops, %d failed, %d sweeps, next %d: %v", p.ops, p.failed, len(p.sweepSecs), p.next, p.errs)
	}
	for _, secs := range p.opSecs {
		if secs <= 0 {
			t.Errorf("cell time %v not measured", secs)
		}
	}
}

func TestSmokeServe(t *testing.T) {
	w := tinyServe()
	s, warm, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ss := s.(*serveSession)
	p := &pass{}
	for i := 0; i < 5; i++ { // requests 1..5 name specs 0..2
		ss.do(p, ss.nextRequest())
	}
	if len(ss.st.specSeeds) != 3 {
		t.Fatalf("stream introduced %d specs, want 3", len(ss.st.specSeeds))
	}
	cells, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if warm.failed+p.failed != 0 || cells == 0 || len(p.hitSecs) == 0 || len(p.missSecs) == 0 {
		t.Errorf("serve: %d failed, %d cells simulated, %d hits, %d misses: %v", p.failed, cells, len(p.hitSecs), len(p.missSecs), p.errs)
	}
}

func TestTamperedDigestFails(t *testing.T) {
	w := tinyTC()
	res, err := exp.Run(w.config(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	good := opDigest([]*exp.Result{res})
	for _, c := range []struct {
		digest     string
		wantFailed int
	}{{good, 0}, {"0123456789abcdef", 1}} {
		p := &pins{FirstSeed: 2, Digests: map[string][]string{w.name: {c.digest}}}
		s, _, err := w.setup(1, p) // the warm-up op (seed 1) is outside the pinned range
		if err != nil {
			t.Fatal(err)
		}
		got := &pass{next: 1}
		s.run(got, past)
		if got.failed != c.wantFailed {
			t.Errorf("pinned digest %s: %d failed ops, want %d (%v)", c.digest, got.failed, c.wantFailed, got.errs)
		}
	}
}

func TestSeed1IsTheEventRateRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 0.5 MiB transfer")
	}
	w := tcRead8b()
	p := &pass{}
	(&simSession{w: w, seed: 1}).op(p, 0)
	if p.failed != 0 || p.sim.events != eventRateEvents {
		t.Errorf("tc-read-8b seed 1 fired %d events (failures %v), want %d", p.sim.events, p.errs, eventRateEvents)
	}
}

func TestMeasureReportsEveryEndToEndMetric(t *testing.T) {
	res, err := measureWorkload("tiny-tc", tinyTC(), nil, 1, time.Millisecond, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < setups+1 {
		t.Errorf("result %+v", res)
	}
	for _, d := range endToEnd {
		if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	in := &result{Correct: true, Attempted: 12, Failed: 0, Metrics: map[string]metric{
		"op_s_p50":  {Value: 0.25048459200000001, Unit: "s"},
		"ops_per_s": {Value: 3.7570723265421524, Unit: "1/s"},
	}}
	var buf bytes.Buffer
	if err := emit(&buf, in, "", "tc-read-8b", 1, 0); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var out result
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*in, out) {
		t.Errorf("round trip: %+v != %+v", out, *in)
	}
	var keys map[string]json.RawMessage
	json.Unmarshal(lines[len(lines)-1], &keys)
	if len(keys) != 4 {
		t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the metrics
// the program emits in step.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd)
	check("per_layer", def.PerLayer, perLayer)
	ws := workloads()
	if len(def.Workloads) != len(ws) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(def.Workloads), len(ws))
	}
	for _, w := range def.Workloads {
		if _, ok := ws[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s unknown to the program", w.Name)
		}
	}
}

func TestPinsCoverDefaultSeed(t *testing.T) {
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tc-read-8b", "dd-write-8b-64", "fig3b-sweep"} {
		if _, ok := p.lookup(name, 1); !ok {
			t.Errorf("no digest pinned for %s op seed 1", name)
		}
	}
}

// TestServeWindowFitsCache checks the bound that keeps live cells out of
// the daemon's eviction: 2·window+1 specs of at most maxSpecCells cells.
func TestServeWindowFitsCache(t *testing.T) {
	w := serveMixed()
	for k := range w.presets {
		cfgs, err := w.specConfigs(k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfgs) > maxSpecCells {
			t.Errorf("%s expands to %d cells, more than maxSpecCells = %d", w.preset(k), len(cfgs), maxSpecCells)
		}
	}
	if live := (2*w.window + 1) * maxSpecCells; live > serveCacheCells {
		t.Errorf("window %d reaches %d cells, more than the %d-cell cache", w.window, live, serveCacheCells)
	}
}

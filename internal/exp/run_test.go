package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/stats"
	"ddio/internal/workload"
)

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"no cps", func(c *Config) { c.NCP = 0 }},
		{"no iops", func(c *Config) { c.NIOP = 0 }},
		{"no disks", func(c *Config) { c.NDisks = 0 }},
		{"zero file", func(c *Config) { c.FileBytes = 0 }},
		{"file not block multiple", func(c *Config) { c.FileBytes = 8192*3 + 1 }},
		{"file not record multiple", func(c *Config) { c.RecordSize = 8192 * 3 }},
		{"no disk spec", func(c *Config) { c.Disk = nil }},
		{"block not sector multiple", func(c *Config) { c.BlockSize = 1000 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRunRejectsBadPattern(t *testing.T) {
	cfg := smokeCfg()
	cfg.Pattern = "zz"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirectedSort
	cfg.Pattern = "rb"
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Events != b.Events {
		t.Fatalf("same seed, different runs: %v/%d vs %v/%d", a.Elapsed, a.Events, b.Elapsed, b.Events)
	}
}

func TestSeedChangesRandomLayoutTiming(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirected // no presort: layout order matters most
	cfg.Pattern = "rb"
	cfg.Layout = pfs.RandomBlocks
	cfg.Seed = 1
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed == b.Elapsed {
		t.Fatal("different seeds produced identical elapsed time on random layout")
	}
}

func TestRANormalization(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirected
	cfg.Pattern = "ra"
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MovedBytes != cfg.FileBytes*int64(cfg.NCP) {
		t.Fatalf("ra moved %d bytes, want %d", r.MovedBytes, cfg.FileBytes*int64(cfg.NCP))
	}
	// Reported MBps is normalized (file/elapsed), aggregate is NCP times
	// larger.
	if r.AggMBps < 3.9*r.MBps || r.AggMBps > 4.1*r.MBps {
		t.Fatalf("agg %.2f vs normalized %.2f with 4 CPs", r.AggMBps, r.MBps)
	}
}

func TestMetricsArePopulated(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = TraditionalCaching
	cfg.Pattern = "rb"
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Disk.Reads == 0 || r.NetMsgs == 0 || r.IOPBusy == 0 || r.TC.Requests == 0 {
		t.Fatalf("metrics not collected: %+v", r)
	}
	cfg.Method = DiskDirectedSort
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DD.Blocks == 0 || r2.DD.Memputs == 0 {
		t.Fatalf("DD metrics not collected: %+v", r2.DD)
	}
}

func TestTrialsAggregates(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirectedSort
	cfg.Pattern = "rb"
	tr, err := Trials(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Results) != 3 || len(tr.MBps) != 3 {
		t.Fatalf("trial count %d", len(tr.Results))
	}
	if tr.Mean <= 0 {
		t.Fatalf("mean %v", tr.Mean)
	}
	if tr.CV < 0 || tr.CV > 0.5 {
		t.Fatalf("cv %v out of sane range", tr.CV)
	}
	// Seeds must differ across trials.
	if tr.Results[0].Config.Seed == tr.Results[1].Config.Seed {
		t.Fatal("trials reused the seed")
	}
}

func TestParseMethod(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Method
	}{{"tc", TraditionalCaching}, {"ddio", DiskDirected}, {"ddio-sort", DiskDirectedSort}, {"2phase", TwoPhase}} {
		got, err := ParseMethod(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseMethod(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseMethod("zz"); err == nil {
		t.Error("bogus method accepted")
	}
	if TraditionalCaching.String() != "TC" || DiskDirectedSort.String() != "DDIO+sort" {
		t.Error("method names")
	}
	if !strings.Contains(Method(99).String(), "99") {
		t.Error("unknown method string")
	}
}

func TestMaxBandwidthCeilings(t *testing.T) {
	cfg := DefaultConfig()
	// 16 disks x ~2.2 vs 16 busses x ~9.5: disks bind.
	diskBound := cfg.MaxBandwidthMBps()
	if diskBound < 30 || diskBound > 40 {
		t.Fatalf("16-disk ceiling %.1f", diskBound)
	}
	cfg.NIOP = 1
	cfg.NDisks = 16
	busBound := cfg.MaxBandwidthMBps()
	if busBound > 10 {
		t.Fatalf("single-bus ceiling %.1f, want <= 10 MB/s", busBound)
	}
}

func TestNumBlocks(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumBlocks() != 1280 {
		t.Fatalf("10 MB / 8 KB = %d blocks", cfg.NumBlocks())
	}
}

func TestTwoPhaseThroughRunner(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = TwoPhase
	cfg.Pattern = "rc"
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.VerifyErrors != 0 {
		t.Fatalf("verify errors %d", r.VerifyErrors)
	}
}

func TestTrialsFailOnVerifyError(t *testing.T) {
	// Sanity: trials propagate run errors (bad pattern here).
	cfg := smokeCfg()
	cfg.Pattern = "qq"
	if _, err := Trials(cfg, 2); err == nil {
		t.Fatal("bad pattern not propagated")
	}
}

// A classic run is exactly one collective phase: running cfg.Pattern as
// a one-phase workload must reproduce every counter of the classic run.
// Only the throughput definition differs — classic MBps is the paper's
// file bytes over elapsed time, and classic runs time no requests.
func TestClassicEqualsOneCollectivePhase(t *testing.T) {
	for _, method := range []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase} {
		for _, layout := range []pfs.LayoutKind{pfs.Contiguous, pfs.RandomBlocks} {
			for _, pattern := range hpf.AllPatterns() {
				for _, record := range []int{8192, 1024} {
					cfg := smokeCfg()
					cfg.FileBytes = 256 * 1024
					cfg.Method, cfg.Layout, cfg.Pattern, cfg.RecordSize = method, layout, pattern, record
					name := fmt.Sprintf("%v/%s/%v/%dB", method, pattern, layout, record)
					classic, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s classic: %v", name, err)
					}
					cfg.Workload = &workload.Spec{Phases: []workload.Phase{{Pattern: pattern}}}
					phased, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s one phase: %v", name, err)
					}
					if classic.VerifyErrors != 0 {
						t.Errorf("%s: %d verify errors", name, classic.VerifyErrors)
					}
					if want := float64(cfg.FileBytes) / classic.Elapsed.Seconds() / MiB; classic.MBps != want {
						t.Errorf("%s: classic MBps %v, want file bytes over elapsed %v", name, classic.MBps, want)
					}
					if classic.ReqLatency != (stats.Summary{}) {
						t.Errorf("%s: classic run reports request latency %+v", name, classic.ReqLatency)
					}
					a, b := *classic, *phased
					a.Config, b.Config = Config{}, Config{}
					a.MBps, b.MBps = 0, 0
					a.ReqLatency, b.ReqLatency = stats.Summary{}, stats.Summary{}
					if !reflect.DeepEqual(a, b) {
						t.Errorf("%s: classic and one-phase runs differ:\nclassic %+v\nphased  %+v", name, a, b)
					}
				}
			}
		}
	}
}

// TestSweepReusesRunMemory: while another engine stays open, as on a
// sweep's parallel workers, a run reuses the CP memory, disk pages and
// file-system buffers the previous run released. The second of two
// identical runs then allocates at most half the bytes of the first,
// and its Result — verification included — equals a cold run's: every
// reused slab was cleared, so a lost delivery cannot pass on the
// previous run's bytes.
func TestSweepReusesRunMemory(t *testing.T) {
	for _, method := range []Method{DiskDirected, TraditionalCaching} {
		cfg := DefaultConfig()
		cfg.Method, cfg.Pattern, cfg.Layout = method, "rb", pfs.RandomBlocks
		cfg.FileBytes, cfg.RecordSize = MiB, 8192
		cold, err := Run(cfg) // a lone run keeps nothing for the next
		if err != nil {
			t.Fatal(err)
		}
		if cold.VerifyErrors != 0 {
			t.Fatalf("%v cold run: %d verify errors", method, cold.VerifyErrors)
		}

		hold := sim.NewEngine()
		var alloc [2]uint64
		for i := range alloc {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			alloc[i] = after.TotalAlloc - before.TotalAlloc
			if !reflect.DeepEqual(res, cold) {
				t.Fatalf("%v run %d with reuse differs from a cold run:\nwarm %+v\ncold %+v", method, i+1, res, cold)
			}
		}
		hold.Close()
		t.Logf("%v: allocated %d bytes, then %d", method, alloc[0], alloc[1])
		if alloc[1] > alloc[0]/2 {
			t.Errorf("%v: second run allocated %d bytes, more than half the first's %d: run memory not reused",
				method, alloc[1], alloc[0])
		}
	}
}

// TestRunAllHoldsRunMemory: a sweep holds the slab list across its
// cells, so with one worker, where each cell's engine is the only one
// open, the second of two identical cells still reuses the first one's
// run memory and returns the same Result. Once RunAll returns nothing
// is held: the next lone run allocates like a cold one.
func TestRunAllHoldsRunMemory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pattern, cfg.FileBytes, cfg.RecordSize = "rb", MiB, 8192
	var alloc []uint64
	measured := func(c Config) (*Result, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(c)
		runtime.ReadMemStats(&after)
		alloc = append(alloc, after.TotalAlloc-before.TotalAlloc)
		return res, err
	}
	r := NewRunner(1, nil)
	r.SetRunFunc(measured)
	results, err := r.RunAll([]Config{cfg, cfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("cell with reused memory differs:\nfirst  %+v\nsecond %+v", results[0], results[1])
	}
	if _, err := measured(cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("allocated %d bytes, then %d in the sweep, then %d after it", alloc[0], alloc[1], alloc[2])
	if alloc[1] > alloc[0]/2 {
		t.Errorf("second cell allocated %d bytes, more than half the first's %d: the sweep kept no run memory",
			alloc[1], alloc[0])
	}
	if alloc[2] <= alloc[0]/2 {
		t.Errorf("a run after the sweep allocated only %d bytes of a cold run's %d: the sweep left run memory held",
			alloc[2], alloc[0])
	}
}

// TestRandomLayoutWarmRunEqualsCold: a random-layout run whose placement
// comes from the memo, after a warm-up run with the same seed, returns
// the Result of the cold run that built it, traced or not.
func TestRandomLayoutWarmRunEqualsCold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Method, cfg.Pattern, cfg.Layout = DiskDirectedSort, "rb", pfs.RandomBlocks
	cfg.FileBytes, cfg.RecordSize = MiB/2, 8192
	cfg.Seed = 271828 // no other test's seed, so the first run misses
	cold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("warm run differs from the cold one:\nwarm %+v\ncold %+v", warm, cold)
	}

	cfg.Seed = 314159
	jsonl := func() (*Result, string) {
		res, rec, err := TracedRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := rec.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		res.Config.Trace = nil
		return res, b.String()
	}
	coldRes, coldTrace := jsonl()
	warmRes, warmTrace := jsonl()
	if !reflect.DeepEqual(warmRes, coldRes) || warmTrace != coldTrace {
		t.Fatal("warm traced run differs from the cold one")
	}
}

package exp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"ddio/internal/workload"
)

// parOptions is a scaled-down figure configuration for runner tests.
func parOptions(workers int) Options {
	return Options{Trials: 2, FileBytes: 512 * 1024, Seed: 9, Verify: true, Workers: workers}
}

// assertParallelBitIdentical is the determinism contract: a table
// generated on eight workers must be bit-identical to the sequential one
// — seeds derive from (cell, trial) position and results are slotted by
// index, so scheduling order cannot leak into the cells.
func assertParallelBitIdentical(t *testing.T, spec *SweepSpec) {
	t.Helper()
	seq, err := spec.RunFull(parOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := spec.RunFull(parOptions(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Table.Cells, par.Table.Cells) {
		t.Fatalf("parallel cells differ from sequential:\nseq %+v\npar %+v", seq.Table.Cells, par.Table.Cells)
	}
}

// The contract on a scaled Figure 3: a pattern-axis grid on the
// random-blocks layout.
func TestPatternTableParallelBitIdentical(t *testing.T) {
	spec := tinyPatternSpec()
	spec.Layout = "random-blocks"
	spec.Patterns = []string{"ra", "rb", "rc"}
	assertParallelBitIdentical(t, spec)
}

// The same contract for the machine-shape sweeps (a scaled Figure 5,
// expressed as a sweep spec).
func TestSweepTableParallelBitIdentical(t *testing.T) {
	spec := tinySweepSpec()
	spec.Values = []int{1, 4}
	assertParallelBitIdentical(t, spec)
}

// Runner.Trials on a pool must aggregate exactly like sequential Trials.
func TestRunnerTrialsMatchesSequential(t *testing.T) {
	cfg := smokeCfg()
	cfg.Method = DiskDirectedSort
	cfg.Pattern = "rb"
	seq, err := Trials(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(4, nil).Trials(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.MBps, par.MBps) || seq.Mean != par.Mean || seq.CV != par.CV {
		t.Fatalf("parallel trials differ: %v/%v vs %v/%v", seq.MBps, seq.Mean, par.MBps, par.Mean)
	}
}

// Progress lines under the parallel runner arrive serialized, one
// complete line per cell (order may differ from table order).
func TestParallelProgressSerialized(t *testing.T) {
	var lines []string
	o := parOptions(8)
	o.Progress = func(s string) { lines = append(lines, s) } // safe: called under the runner lock
	spec := tinyPatternSpec()
	spec.Name = "figQ"
	spec.Patterns = []string{"ra", "rb"}
	if _, err := spec.RunFull(o); err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Patterns) * len(spec.Methods); len(lines) != want {
		t.Fatalf("got %d progress lines, want %d: %q", len(lines), want, lines)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "figQ pattern=") || !strings.Contains(l, "MB/s") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
}

// A failing config aborts the whole batch with an error.
func TestRunAllReportsError(t *testing.T) {
	good := smokeCfg()
	bad := smokeCfg()
	bad.Pattern = "zz"
	if _, err := NewRunner(4, nil).RunAll([]Config{good, bad, good}, nil); err == nil {
		t.Fatal("bad config accepted")
	}
}

// Every error the runner reports for a workload cell names the
// workload it ran, not the unused default pattern; classic cells keep
// naming their pattern.
func TestRunnerErrorsNameTheWorkload(t *testing.T) {
	cfg := smokeCfg()
	cfg.Workload = &workload.Spec{Name: "mixed", Phases: []workload.Phase{{Pattern: workload.PatternZipf, Requests: 8, Alpha: 0.5}}}
	want := cfg.Workload.Summary()
	outcomes := map[string]func(Config) (*Result, error){
		"error":      func(Config) (*Result, error) { return nil, errors.New("boom") },
		"panic":      func(Config) (*Result, error) { panic("boom") },
		"verify":     func(c Config) (*Result, error) { return &Result{Config: c, VerifyErrors: 2}, nil },
		"fault loss": func(c Config) (*Result, error) { return &Result{Config: c, Faults: FaultTotals{Exhausted: 1}}, nil },
	}
	for name, fn := range outcomes {
		r := NewRunner(1, nil)
		r.SetRunFunc(fn)
		_, err := r.RunAll([]Config{cfg}, nil)
		if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "/ra") {
			t.Errorf("%s: error %v does not name workload %q", name, err, want)
		}
	}
	if got := TraceTitle(cfg); !strings.Contains(got, want) {
		t.Errorf("trace title %q does not name workload %q", got, want)
	}
	classic := smokeCfg()
	classic.Pattern = "rc"
	if got, want := TraceTitle(classic), "TC rc, random-blocks layout"; got != want {
		t.Errorf("classic trace title %q, want %q", got, want)
	}
}

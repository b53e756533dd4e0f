package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ddio/internal/sim"
)

// CellPanicError records a sweep cell whose simulation panicked. The
// runner recovers the panic in the worker, so one poisoned cell reports
// a typed error (with the failing cell's full config and stack) while
// every other cell's table entry completes normally.
type CellPanicError struct {
	Config Config // the configuration whose run panicked
	Value  any    // the recovered panic value
	Stack  string // goroutine stack at the point of the panic
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("exp: %v/%s seed %d panicked: %v",
		e.Config.Method, e.Config.label(), e.Config.Seed, e.Value)
}

// FaultLossError reports a run that lost requests after exhausting its
// retry budget under fault injection. The loss is typed, never silent:
// any injected transient error not recovered by a retry surfaces here.
type FaultLossError struct {
	Method       Method
	Cell         string // what the run transferred: its pattern or workload summary
	Seed         int64
	Lost         int64 // requests still failing after the retry budget
	VerifyErrors int   // end-to-end verification failures, if verification ran
}

func (e *FaultLossError) Error() string {
	return fmt.Sprintf("exp: %v/%s seed %d: %d disk requests lost after retry budget (%d verify errors)",
		e.Method, e.Cell, e.Seed, e.Lost, e.VerifyErrors)
}

// Runner executes independent experiment runs on a bounded worker pool.
// Every simulation is a pure function of its Config (including the
// seed), so runs can proceed concurrently; results are slotted by input
// index, which makes tables and trial aggregates bit-identical to a
// sequential execution regardless of worker count or completion order.
//
// Progress lines are serialized through the runner's lock so concurrent
// completions never interleave mid-line.
type Runner struct {
	workers  int
	progress func(string)
	run      func(Config) (*Result, error) // nil = Run; see SetRunFunc
	mu       sync.Mutex
}

// NewRunner returns a runner with the given concurrency. workers <= 0
// selects GOMAXPROCS. progress, if non-nil, receives serialized
// progress lines (one per completed cell or trial group).
func NewRunner(workers int, progress func(string)) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, progress: progress}
}

// SetRunFunc replaces the runner's per-cell execution function (default:
// Run). The serving layer wires a cache-and-deduplicate wrapper here, so
// already-computed cells return instantly and concurrent requests for
// the same cell collapse onto one simulation. fn must be safe for
// concurrent calls and must preserve Run's contract: for a given Config
// it returns a Result identical to what Run would produce (a cache of
// pure-function results does, by construction). nil restores the default.
func (r *Runner) SetRunFunc(fn func(Config) (*Result, error)) { r.run = fn }

// progressf emits one progress line under the runner's lock. Safe to
// call from any goroutine.
func (r *Runner) progressf(format string, args ...any) {
	if r.progress == nil {
		return
	}
	r.mu.Lock()
	r.progressLocked(format, args...)
	r.mu.Unlock()
}

// progressLocked emits one progress line; the caller must already hold
// the runner's lock (as RunAll onDone callbacks do).
func (r *Runner) progressLocked(format string, args ...any) {
	if r.progress == nil {
		return
	}
	r.progress(fmt.Sprintf(format, args...))
}

// RunAll executes every config and returns the results in input order.
// onDone, if non-nil, is invoked once per successful run while holding
// the runner's lock, so callers can update shared completion state
// (and emit progress) without further synchronization; by the time the
// last onDone for a group fires, all of that group's result slots are
// visible. On failure RunAll reports the lowest-indexed error that was
// observed; when several configs fail, which one was observed first
// can vary with scheduling. While it runs, RunAll holds the slab list
// (sim.HoldSlabs), so each cell reuses the run memory earlier cells
// released, whatever the worker count.
func (r *Runner) RunAll(cfgs []Config, onDone func(i int, res *Result)) ([]*Result, error) {
	sim.HoldSlabs()
	defer sim.ReleaseSlabs()
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	workers := min(max(r.workers, 1), len(cfgs))
	// Fail fast: once any run fails, workers skip the remaining configs
	// (draining the feed so it never blocks). With several workers a
	// lower-indexed config may be skipped after a higher-indexed one has
	// already failed, so the error scan below picks the lowest-indexed
	// failure that actually ran. A panicked cell does not fail fast (see
	// runOne); the scan surfaces it after every other cell has completed.
	var failed atomic.Bool
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() {
					continue
				}
				if r.runOne(cfgs, i, results, errs, onDone) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// safeRun executes cfgs[i] with panic isolation: a panic inside the
// simulation becomes a CellPanicError carrying the cell's config, the
// panic value, and the stack, instead of crashing the whole sweep.
func (r *Runner) safeRun(cfg Config) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &CellPanicError{Config: cfg, Value: v, Stack: string(debug.Stack())}
		}
	}()
	if r.run != nil {
		return r.run(cfg)
	}
	return Run(cfg)
}

// runOne executes cfgs[i] and slots its outcome. Errors are wrapped
// with the config's method, label (pattern or workload) and seed so figure generators only need
// to add the table id. A panicked cell is recorded in its error slot
// but reported as nil here, so the remaining cells keep running; the
// typed error surfaces from RunAll's final scan.
func (r *Runner) runOne(cfgs []Config, i int, results []*Result, errs []error, onDone func(int, *Result)) error {
	cfg := &cfgs[i]
	res, err := r.safeRun(*cfg)
	_, panicked := err.(*CellPanicError)
	switch {
	case panicked:
		// keep the typed error as-is; it already names the cell
	case err != nil:
		err = fmt.Errorf("%v/%s seed %d: %w", cfg.Method, cfg.label(), cfg.Seed, err)
	case res.Faults.Exhausted > 0:
		err = &FaultLossError{Method: cfg.Method, Cell: cfg.label(), Seed: cfg.Seed,
			Lost: res.Faults.Exhausted, VerifyErrors: res.VerifyErrors}
	case res.VerifyErrors > 0:
		err = fmt.Errorf("exp: %v/%s seed %d: %d verification errors",
			cfg.Method, cfg.label(), cfg.Seed, res.VerifyErrors)
	}
	results[i], errs[i] = res, err
	if err == nil && onDone != nil {
		r.mu.Lock()
		onDone(i, res)
		r.mu.Unlock()
	}
	if panicked {
		return nil
	}
	return err
}

// trialSeed derives the seed of trial k from a base config, the same
// derivation sequential Trials has always used.
func trialSeed(base int64, k int) int64 { return base + int64(k)*1000003 }

// Trials replicates cfg n times with derived seeds (varying the random
// disk layout and network jitter), running them on the pool, and
// aggregates throughput.
func (r *Runner) Trials(cfg Config, n int) (*Trial, error) {
	if n < 1 {
		n = 1
	}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = trialSeed(cfg.Seed, i)
		if n > 1 {
			// A trace recorder serves exactly one run; replicated
			// configs sharing one would race on the pool (and interleave
			// into nonsense even sequentially). Trace a single run via
			// TracedRun instead.
			cfgs[i].Trace = nil
		}
	}
	results, err := r.RunAll(cfgs, nil)
	if err != nil {
		return nil, err
	}
	t := &Trial{Results: results, MBps: make([]float64, n)}
	for i, res := range results {
		t.MBps[i] = res.MBps
	}
	t.Mean = mean(t.MBps)
	t.CV = cv(t.MBps)
	return t, nil
}

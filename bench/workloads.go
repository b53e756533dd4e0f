package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ddio/internal/exp"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
)

// A workload is one set of inputs the benchmark runs. setup builds a
// fresh instance from the seed — inputs, runner or daemon — and runs its
// warm-up op, whose outcome it returns as a one-op pass so the warm-up is
// checked like every other op.
type workload interface {
	setup(seed int64, pins *pins) (session, *pass, error)
}

// A session is one set-up workload instance.
type session interface {
	// run continues the op stream at position p.next until deadline
	// (always at least one step) and adds what it measured to p.
	run(p *pass, deadline time.Time)
	// finish runs the end-of-run checks that span ops and returns the
	// number of cells the daemon simulated (0 without a daemon).
	finish() (cellsSimulated int64, err error)
	// traceConfig is the first simulation of op 0, the one the traced
	// pass records.
	traceConfig() exp.Config
	close()
}

// loadThreads bounds the benchmark's load: worker goroutines of the sweep
// runner and client connections to the daemon, at most nproc.
var loadThreads = min(2, runtime.NumCPU())

// workloads are the benchmark's workloads by name; README.md says why
// each exists.
func workloads() map[string]workload {
	return map[string]workload{
		"tc-read-8b":     tcRead8b(),
		"dd-write-8b-64": ddWrite8b64(),
		"fig3b-sweep":    fig3bSweep(),
		"serve-mixed":    serveMixed(),
	}
}

// tcRead8b is BenchmarkSimulatorEventRate's run: traditional caching,
// pattern rc, 8-byte records, 0.5 MiB, Table-1 machine, verify on.
func tcRead8b() *simWorkload {
	cfg := exp.DefaultConfig()
	cfg.Method = exp.TraditionalCaching
	cfg.Pattern = "rc"
	cfg.RecordSize = 8
	cfg.FileBytes = exp.MiB / 2
	return &simWorkload{name: "tc-read-8b", base: cfg, seed1Events: eventRateEvents}
}

// ddWrite8b64 is the large-machine run: disk-directed I/O with presort,
// pattern wc, 8-byte records, 0.5 MiB, 64 CPs, IOPs and disks.
func ddWrite8b64() *simWorkload {
	cfg := exp.DefaultConfig()
	cfg.Method = exp.DiskDirectedSort
	cfg.Pattern = "wc"
	cfg.RecordSize = 8
	cfg.FileBytes = exp.MiB / 2
	cfg.NCP, cfg.NIOP, cfg.NDisks = 64, 64, 64
	return &simWorkload{name: "dd-write-8b-64", base: cfg}
}

// fig3bSweep is the Figure 3b grid: every pattern under TC, DDIO and
// DDIO+sort, random-blocks, 8 KB records, 1 MiB, Table-1 machine.
func fig3bSweep() *sweepWorkload {
	cfg := exp.DefaultConfig()
	cfg.FileBytes = exp.MiB
	cfg.RecordSize = 8192
	cfg.Layout = pfs.RandomBlocks
	return &sweepWorkload{
		name:     "fig3b-sweep",
		base:     cfg,
		patterns: hpf.AllPatterns(),
		methods:  []exp.Method{exp.TraditionalCaching, exp.DiskDirected, exp.DiskDirectedSort},
		workers:  loadThreads,
	}
}

// pass is what one run over a session's op stream measured.
type pass struct {
	mu        sync.Mutex
	ops       int       // ops attempted
	failed    int       // ops that failed a check
	errs      []string  // the first few failures
	opSecs    []float64 // host seconds per op
	wall      float64   // seconds the pass ran
	next      int       // op-stream position the pass has reached
	sim       simTotals // summed counters of the runs behind successful ops
	sweepSecs []float64 // fig3b-sweep: host seconds per sweep
	hitSecs   []float64 // serve-mixed: seconds per cache-hit response
	missSecs  []float64 // serve-mixed: seconds per response that simulated
}

// record adds one op's timing and outcome. Safe for concurrent use.
func (p *pass) record(secs float64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	p.opSecs = append(p.opSecs, secs)
	if err != nil {
		p.failed++
		if len(p.errs) < 5 {
			p.errs = append(p.errs, err.Error())
		}
	}
}

// merge folds another pass's outcome counts into p.
func (p *pass) merge(q *pass) {
	p.ops += q.ops
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
}

// simTotals sums the Result counters of a pass's simulations.
type simTotals struct {
	runs, events, elapsedNs, netMsgs, netBytes      int64
	diskReads, diskWrites, diskSeeks, diskCacheHits int64
	diskBusy, diskWait, busBusy, iopBusy, cpBusy    time.Duration
	tcRequests, tcHits, tcMisses, tcRMW             int64
	ddBlocks, ddMemputs, ddMemgets, fileBlocks      int64
}

func (t *simTotals) add(r *exp.Result) {
	t.runs++
	t.events += r.Events
	t.elapsedNs += r.Elapsed.Nanoseconds()
	t.netMsgs += r.NetMsgs
	t.netBytes += r.NetBytes
	t.diskReads += r.Disk.Reads
	t.diskWrites += r.Disk.Writes
	t.diskSeeks += r.Disk.Seeks
	t.diskCacheHits += r.Disk.CacheHits
	t.diskBusy += r.Disk.Busy
	t.diskWait += r.Disk.QueueWait
	t.busBusy += r.BusBusy
	t.iopBusy += r.IOPBusy
	t.cpBusy += r.CPBusy
	t.tcRequests += r.TC.Requests
	t.tcHits += r.TC.CacheHits
	t.tcMisses += r.TC.CacheMiss
	t.tcRMW += r.TC.PartialRMW
	t.ddBlocks += r.DD.Blocks
	t.ddMemputs += r.DD.Memputs
	t.ddMemgets += r.DD.Memgets
	t.fileBlocks += int64(r.Config.NumBlocks())
}

// simWorkload runs one classic collective transfer per op, sequentially;
// op i uses seed S+i.
type simWorkload struct {
	name        string
	base        exp.Config
	seed1Events int64 // events the op with seed 1 must fire; 0 = unchecked
}

func (w *simWorkload) config(seed int64, i int) exp.Config {
	cfg := w.base
	cfg.Seed = seed + int64(i)
	return cfg
}

func (w *simWorkload) setup(seed int64, pins *pins) (session, *pass, error) {
	s := &simSession{w: w, seed: seed, pins: pins}
	warm := &pass{}
	s.op(warm, 0)
	return s, warm, nil
}

type simSession struct {
	w    *simWorkload
	seed int64
	pins *pins
}

func (s *simSession) op(p *pass, i int) {
	cfg := s.w.config(s.seed, i)
	start := time.Now()
	res, err := exp.Run(cfg)
	secs := time.Since(start).Seconds()
	if err = checkRun(res, err); err == nil {
		err = s.check(res)
	}
	if err == nil {
		p.sim.add(res)
	}
	p.record(secs, err)
}

func (s *simSession) check(res *exp.Result) error {
	seed := res.Config.Seed
	if s.w.seed1Events != 0 && seed == 1 && res.Events != s.w.seed1Events {
		return fmt.Errorf("op seed 1 fired %d events, want %d", res.Events, s.w.seed1Events)
	}
	return checkPinned(s.pins, s.w.name, seed, []*exp.Result{res})
}

func (s *simSession) run(p *pass, deadline time.Time) {
	start := time.Now()
	for from := p.next; p.next == from || time.Now().Before(deadline); p.next++ {
		s.op(p, p.next)
	}
	p.wall += time.Since(start).Seconds()
}

func (s *simSession) finish() (int64, error)  { return 0, nil }
func (s *simSession) traceConfig() exp.Config { return s.w.config(s.seed, 0) }
func (s *simSession) close()                  {}

// sweepWorkload runs a pattern × method grid per step on exp.Runner with
// a bounded worker pool; one op is one cell, and sweep j uses seed S+j.
type sweepWorkload struct {
	name     string
	base     exp.Config
	patterns []string
	methods  []exp.Method
	workers  int
}

// configs is sweep j's cell grid, patterns outermost.
func (w *sweepWorkload) configs(seed int64, j int) []exp.Config {
	cfgs := make([]exp.Config, 0, len(w.patterns)*len(w.methods))
	for _, pat := range w.patterns {
		for _, m := range w.methods {
			cfg := w.base
			cfg.Pattern = pat
			cfg.Method = m
			cfg.Seed = seed + int64(j)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func (w *sweepWorkload) setup(seed int64, pins *pins) (session, *pass, error) {
	s := &sweepSession{w: w, seed: seed, pins: pins, runner: exp.NewRunner(w.workers, nil)}
	s.runner.SetRunFunc(s.timedRun)
	warm := &pass{}
	start := time.Now()
	res, err := exp.Run(s.traceConfig())
	warm.record(time.Since(start).Seconds(), checkRun(res, err))
	return s, warm, nil
}

type sweepSession struct {
	w      *sweepWorkload
	seed   int64
	pins   *pins
	runner *exp.Runner

	mu       sync.Mutex
	cellSecs []float64 // cell times of the sweep in progress
}

// timedRun is the runner's cell function: exp.Run, timed.
func (s *sweepSession) timedRun(cfg exp.Config) (*exp.Result, error) {
	start := time.Now()
	res, err := exp.Run(cfg)
	secs := time.Since(start).Seconds()
	s.mu.Lock()
	s.cellSecs = append(s.cellSecs, secs)
	s.mu.Unlock()
	return res, err
}

func (s *sweepSession) run(p *pass, deadline time.Time) {
	start := time.Now()
	for from := p.next; p.next == from || time.Now().Before(deadline); p.next++ {
		j := p.next
		cfgs := s.w.configs(s.seed, j)
		sweepStart := time.Now()
		results, err := s.runner.RunAll(cfgs, nil)
		p.sweepSecs = append(p.sweepSecs, time.Since(sweepStart).Seconds())
		if err == nil {
			err = checkPinned(s.pins, s.w.name, s.seed+int64(j), results)
		}
		s.mu.Lock()
		cells := s.cellSecs
		s.cellSecs = nil
		s.mu.Unlock()
		// RunAll fails fast, so a failed sweep counts every cell failed.
		for k := range cfgs {
			secs := 0.0
			if k < len(cells) {
				secs = cells[k]
			}
			if err == nil {
				p.sim.add(results[k])
			}
			p.record(secs, err)
		}
	}
	p.wall += time.Since(start).Seconds()
}

func (s *sweepSession) finish() (int64, error)  { return 0, nil }
func (s *sweepSession) traceConfig() exp.Config { return s.w.configs(s.seed, 0)[0] }
func (s *sweepSession) close()                  {}

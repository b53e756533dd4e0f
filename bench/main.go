// Command bench is the repository's benchmark: it runs one workload of
// the disk-directed I/O simulator for a fixed time, checks every op's
// output, and prints the metrics as one JSON line.
//
//	go run . -workload tc-read-8b -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics, measured with tracing off.
// -trace 1 repeats the untraced pass and adds a CPU-profiled pass, one
// event-traced run and the layer probes, and reports the per-layer
// metrics; it writes cpu.pprof and trace.html under -tracedir. -compare
// A.jsonl B.jsonl compares two sets of recorded runs (see -append).
// README.md lists the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"ddio/internal/exp"
	"ddio/internal/stats"
	"ddio/internal/trace"
)

// setups is how many fresh set-ups a run times; setup_s is their median.
const setups = 5

// profileSeconds is how long the traced pass profiles the op stream.
const profileSeconds = 3

func main() {
	name := flag.String("workload", "", "workload to run: tc-read-8b, dd-write-8b-64, fig3b-sweep or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed; op i uses seed+i")
	seconds := flag.Int("seconds", 20, "seconds the measured pass runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	traceDir := flag.String("tracedir", filepath.Join(".bench_build", "trace"), "where -trace 1 writes cpu.pprof and trace.html, one directory per workload")
	appendTo := flag.String("append", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	pin := flag.String("pin", "", "recompute the pinned digests and write them to this file (bench/pins.json)")
	compare := flag.Bool("compare", false, "compare two recorded run files, reading bounds from ./BENCHMARK.json: -compare PARENT.jsonl CHANGE.jsonl")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("bench: -compare needs two run files")
			break
		}
		err = compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *pin != "":
		err = writePins(*pin)
	default:
		var res *result
		res, err = runWorkload(*name, *seed, *seconds, *traced == 1, *traceDir)
		if err == nil {
			err = emit(os.Stdout, res, *appendTo, *name, *seed, *traced)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// emit prints the human-readable metrics to stderr and the JSON result as
// the last line of stdout.
func emit(stdout io.Writer, res *result, appendTo, name string, seed int64, traced int) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if appendTo != "" {
		rec, err := json.Marshal(record{Workload: name, Seed: seed, Trace: traced, Result: res})
		if err != nil {
			return err
		}
		f, err := os.OpenFile(appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// record is one line of an -append file.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// runWorkload sets the workload up several times, measures one untraced
// pass, and — when traced — the profiled pass, the traced run and the
// layer probes.
func runWorkload(name string, seed int64, seconds int, traced bool, traceDir string) (*result, error) {
	w, ok := workloads()[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, fmt.Errorf("bench: -seconds must be at least 1")
	}
	p, err := loadPins()
	if err != nil {
		return nil, err
	}
	return measureWorkload(name, w, p, seed, time.Duration(seconds)*time.Second, traced, traceDir)
}

// slice is how often the measured pass pauses to sample the machine's
// speed (see speed.go).
const slice = time.Second

func measureWorkload(name string, w workload, p *pins, seed int64, d time.Duration, traced bool, traceDir string) (*result, error) {
	ref, err := newSpeedRef()
	if err != nil {
		return nil, err
	}
	defer ref.close()
	total := &pass{}
	var setupSecs []float64
	var s session
	for i := 0; i < setups; i++ {
		start := time.Now()
		si, warm, err := w.setup(seed, p)
		if err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		total.merge(warm)
		if err := ref.sample(); err != nil {
			si.close()
			return nil, err
		}
		if i < setups-1 {
			si.close()
		} else {
			s = si
		}
	}
	defer s.close()

	// The runtime counters cover the slices only, not the reference.
	m := &pass{next: 1}
	var rt runtimeSample
	for end := time.Now().Add(d); m.ops == 0 || time.Now().Before(end); {
		until := time.Now().Add(slice)
		if until.After(end) {
			until = end
		}
		before := readRuntime()
		s.run(m, until)
		rt.add(readRuntime(), before)
		if err := ref.sample(); err != nil {
			return nil, err
		}
	}
	total.merge(m)
	cells, finishErr := s.finish()

	// Every host time is rescaled to the nominal machine speed.
	k := ref.scale()
	v := map[string]float64{}
	defs := endToEnd
	if !traced {
		_, setupMed, _ := quartiles(setupSecs)
		v["setup_s"] = k * setupMed
		v["op_s_p50"] = k * stats.Quantile(m.opSecs, 0.50)
		v["ops_per_s"] = ratio(float64(m.ops), k*m.wall)
		v["allocs_per_op"] = ratio(rt.allocObjects, float64(m.ops))
		v["max_rss_mb"] = maxRSSMB()
	} else {
		defs = perLayer
		v["host.speed_scale"] = k
		layerMetrics(v, m, rt, cells, k)
		if err := tracedMetrics(v, s, total, m, k, filepath.Join(traceDir, name)); err != nil {
			return nil, err
		}
	}
	metricsOut, err := collect(defs, v)
	if err != nil {
		return nil, err
	}
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "failed:", e)
	}
	if finishErr != nil {
		fmt.Fprintln(os.Stderr, "failed:", finishErr)
	}
	return &result{
		Correct:   total.failed == 0 && finishErr == nil,
		Attempted: total.ops,
		Failed:    total.failed,
		Metrics:   metricsOut,
	}, nil
}

// layerMetrics fills the per-layer metrics the untraced pass measures:
// simulated counts per run, single-workload host timings (rescaled by k),
// and runtime allocation and GC cost.
func layerMetrics(v map[string]float64, m *pass, rt runtimeSample, cells int64, k float64) {
	t := m.sim
	runs := float64(t.runs)
	per := func(x int64) float64 { return ratio(float64(x), runs) }
	perS := func(x time.Duration) float64 { return ratio(x.Seconds(), runs) }
	v["sim.events"] = per(t.events)
	v["sim.elapsed_s"] = ratio(float64(t.elapsedNs)/1e9, runs)
	v["netsim.msgs"] = per(t.netMsgs)
	v["netsim.bytes"] = per(t.netBytes)
	v["disk.reads"] = per(t.diskReads)
	v["disk.writes"] = per(t.diskWrites)
	v["disk.seeks"] = per(t.diskSeeks)
	v["disk.busy_s"] = perS(t.diskBusy)
	v["disk.wait_s"] = perS(t.diskWait)
	v["disk.ra_hit_ratio"] = ratio(float64(t.diskCacheHits), float64(t.diskCacheHits+t.diskReads))
	v["bus.busy_s"] = perS(t.busBusy)
	v["iop.busy_s"] = perS(t.iopBusy)
	v["cp.busy_s"] = perS(t.cpBusy)
	v["tcfs.requests"] = per(t.tcRequests)
	v["tcfs.hit_ratio"] = ratio(float64(t.tcHits), float64(t.tcHits+t.tcMisses))
	v["tcfs.rmw"] = per(t.tcRMW)
	v["core.blocks"] = per(t.ddBlocks)
	v["core.memputs"] = per(t.ddMemputs)
	v["core.memgets"] = per(t.ddMemgets)
	v["serve.hit_ratio"] = ratio(float64(len(m.hitSecs)), float64(m.ops))
	v["serve.cells_simulated"] = float64(cells)

	var simSecs float64
	if t.runs > 0 {
		for _, s := range m.opSecs {
			simSecs += s
		}
	}
	v["op_s_p90"] = k * stats.Quantile(m.opSecs, 0.90)
	v["sim.events_per_s"] = ratio(float64(t.events), k*simSecs)
	v["exp.sweep_s_p50"] = k * stats.Quantile(m.sweepSecs, 0.50)
	v["serve.hit_s_p50"] = k * stats.Quantile(m.hitSecs, 0.50)
	v["serve.hit_s_p99"] = k * stats.Quantile(m.hitSecs, 0.99)
	v["serve.miss_s_p50"] = k * stats.Quantile(m.missSecs, 0.50)
	v["serve.miss_s_p90"] = k * stats.Quantile(m.missSecs, 0.90)
	v["runtime.alloc_mb_per_op"] = ratio(rt.allocBytes, float64(m.ops)) / 1e6
	v["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)
}

// tracedMetrics runs the profiled pass (continuing the op stream after
// the untraced pass), the event-traced run of op 0, and the layer
// probes, writing cpu.pprof and trace.html to dir. Host times are
// rescaled by k.
func tracedMetrics(v map[string]float64, s session, total, m *pass, k float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("bench: starting CPU profile: %w", err)
	}
	prof := &pass{next: m.next}
	s.run(prof, time.Now().Add(profileSeconds*time.Second))
	pprof.StopCPUProfile()
	total.merge(prof)
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	shares, cpuNs, err := attribute(buf.Bytes())
	if err != nil {
		return err
	}
	for mod, share := range shares {
		v["host."+mod] = share
	}
	t := prof.sim
	perUnit := func(mod string, work int64) float64 {
		return ratio(k*shares[mod]*float64(cpuNs), float64(work))
	}
	v["sim.ns_per_event"] = perUnit("sim", t.events)
	v["netsim.ns_per_msg"] = perUnit("netsim", t.netMsgs)
	v["disk.ns_per_request"] = perUnit("disk", t.diskReads+t.diskWrites)
	v["tcfs.ns_per_request"] = perUnit("tcfs", t.tcRequests)
	v["core.ns_per_block"] = perUnit("core", t.ddBlocks)
	v["pfs.ns_per_block"] = perUnit("pfs", t.fileBlocks)

	if err := traceRun(v, s.traceConfig(), total, dir); err != nil {
		return err
	}
	for _, d := range probes() {
		ns, allocs, err := measure(d)
		if err != nil {
			return err
		}
		v[d.name+"_ns"] = k * ns
		v[d.name+"_allocs"] = allocs
	}
	return nil
}

// traceRun records cfg with the event tracer, writes its trace viewer,
// and reports the simulated critical-path split and the tracer's host
// overhead: the median of three traced runs over the median of three
// untraced ones, alternated.
func traceRun(v map[string]float64, cfg exp.Config, total *pass, dir string) error {
	var plain, traced []float64
	var rec *trace.Recorder
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := exp.Run(cfg)
		plain = append(plain, time.Since(start).Seconds())
		total.record(0, checkRun(res, err))
		start = time.Now()
		res, rec, err = exp.TracedRun(cfg)
		traced = append(traced, time.Since(start).Seconds())
		total.record(0, checkRun(res, err))
		if err != nil {
			return err
		}
	}
	_, plainMed, _ := quartiles(plain)
	_, tracedMed, _ := quartiles(traced)
	v["trace.overhead"] = ratio(tracedMed, plainMed)
	v["trace.disk_util"] = rec.MeanDiskUtilization(rec.End())
	var disk, queue, service, retry, window int64
	for _, c := range rec.CriticalPaths() {
		disk += c.Disk
		queue += c.Queue
		service += c.Service
		retry += c.Retry
		window += c.End - c.Start
	}
	w := float64(window)
	v["trace.crit.disk"] = ratio(float64(disk), w)
	v["trace.crit.queue"] = ratio(float64(queue), w)
	v["trace.crit.service"] = ratio(float64(service), w)
	v["trace.crit.retry"] = ratio(float64(retry), w)

	f, err := os.Create(filepath.Join(dir, "trace.html"))
	if err != nil {
		return err
	}
	if err := rec.WriteHTML(f, exp.TraceTitle(cfg)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample is a snapshot of the runtime's cumulative counters, or a
// sum of differences between snapshots.
type runtimeSample struct {
	allocObjects, allocBytes, gcCPU, totalCPU float64
}

// add adds the change from before to after.
func (r *runtimeSample) add(after, before runtimeSample) {
	r.allocObjects += after.allocObjects - before.allocObjects
	r.allocBytes += after.allocBytes - before.allocBytes
	r.gcCPU += after.gcCPU - before.gcCPU
	r.totalCPU += after.totalCPU - before.totalCPU
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3)}
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

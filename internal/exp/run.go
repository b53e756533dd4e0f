package exp

import (
	"fmt"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/core"
	"ddio/internal/disk"
	"ddio/internal/fault"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/stats"
	"ddio/internal/tcfs"
	"ddio/internal/trace"
	"ddio/internal/twophase"
	"ddio/internal/workload"
)

// DiskTotals sums the per-disk metrics of a run.
type DiskTotals struct {
	Reads, Writes          int64         // media transfers
	CacheHits, CacheStream int64         // read-ahead segment hits / streamed sectors
	Seeks                  int64         // arm movements
	SeekCylinders          int64         // cylinders crossed, summed
	QueueWait              time.Duration // total request time spent queued
	Busy                   time.Duration // total mechanism busy time
}

// FaultTotals sums what fault injection did to a run and what recovery
// cost. Zero throughout for fault-free runs. The counting invariant —
// every injected disk error was either recovered by a retry or counted
// as exhausted — is DiskErrors == Retries + Exhausted: each recovered
// request contributes exactly as many resubmissions as failures, and
// each exhausted request fails Limit+1 times on Limit resubmissions,
// with the final failure counted here as the loss.
type FaultTotals struct {
	DiskErrors  int64 // transient disk failures injected
	Retries     int64 // disk-request resubmissions by the servers
	Recovered   int64 // failed requests a retry eventually completed
	Exhausted   int64 // requests lost after the retry budget — typed failures
	DroppedMsgs int64 // interconnect messages dropped in the fabric
	Resends     int64 // retransmissions (equals DroppedMsgs)
	Spikes      int64 // interconnect latency spikes injected
}

// Result reports one experiment run.
type Result struct {
	Config  Config        // the configuration that produced this result
	Elapsed time.Duration // simulated wall-clock time of the transfer
	// MBps is the paper's reported number: file bytes over elapsed time
	// in MiB/s; for the ra pattern this is already the "normalized by
	// number of CPs" value since every CP moved a whole file copy.
	MBps float64
	// AggMBps counts all application bytes actually moved (ra moves
	// NCP copies).
	AggMBps    float64
	MovedBytes int64 // application bytes moved across all CPs

	Disk     DiskTotals    // summed per-disk metrics
	BusBusy  time.Duration // total SCSI bus busy time
	NetMsgs  int64         // interconnect messages
	NetBytes int64         // interconnect payload bytes
	IOPBusy  time.Duration // total IOP CPU busy time
	CPBusy   time.Duration // total CP CPU busy time
	TC       tcfs.Metrics  // traditional-caching counters (TC and 2phase runs)
	DD       core.Metrics  // disk-directed counters (DDIO runs)
	Faults   FaultTotals   // fault-injection and recovery totals
	Events   int64         // simulation events fired

	// ReqLatency holds per-request latency statistics (seconds, with
	// p50/p90/p99 populated) for workload runs — open-arrival runs are
	// latency studies, not bandwidth studies. Zero for classic
	// whole-file runs, which have no per-request arrivals to time.
	ReqLatency stats.Summary

	VerifyErrors int // blocks/chunks that failed end-to-end verification
}

// cpNames are the per-CP proc names for the machine widths the presets
// reach (≤ 64 CPs), precomputed so per-run spawns don't allocate them.
var cpNames = func() [64]string {
	var a [64]string
	for i := range a {
		a[i] = fmt.Sprintf("cp%d", i)
	}
	return a
}()

// cpProcName returns the diagnostic proc name for compute processor cp.
func cpProcName(cp int) string {
	if cp < len(cpNames) {
		return cpNames[cp]
	}
	return fmt.Sprintf("cp%d", cp)
}

// machine is the assembled simulated hardware of one run: engine,
// interconnect, buses, disks, and the striped file — everything below
// the file-system method. Built identically for classic and workload
// runs so the substrate streams (layout, jitter, faults) draw the same
// values either way.
type machine struct {
	eng   *sim.Engine
	rng   *sim.Rand
	inj   *fault.Injector
	m     *cluster.Machine
	buses []*sim.Pipe // one SCSI bus per IOP
	disks []*disk.Disk
	f     *pfs.File
	tc    []*tcfs.Server // the method's traditional-caching servers, if any
}

// buildMachine assembles the simulated machine from cfg. It may arm
// cfg.TC.Retry/cfg.DD.Retry from the fault plan — pass a private copy.
// The caller owns mc.Close.
func buildMachine(cfg *Config) (*machine, error) {
	mc := &machine{eng: sim.NewEngine()}
	mc.eng.SetRecorder(cfg.Trace) // before machine build: components capture it
	mc.rng = sim.NewRand(cfg.Seed)
	// The injector draws only from dedicated "fault-*" sub-streams, so a
	// nil (or disabled) plan leaves the layout and jitter streams — and
	// therefore the whole run — bit-identical to a faultless build.
	mc.inj = fault.NewInjector(cfg.Faults, mc.rng, cfg.NDisks)
	if pol := mc.inj.Retry(); pol.Enabled() {
		cfg.TC.Retry = pol // also covers the two-phase path (it runs on tcfs servers)
		cfg.DD.Retry = pol
	}
	mc.m = cluster.New(mc.eng, cfg.Net, cfg.NCP, cfg.NIOP, mc.rng)
	mc.m.InjectFaults(mc.inj)

	mc.buses = make([]*sim.Pipe, cfg.NIOP)
	for i := range mc.buses {
		mc.buses[i] = sim.NewPipe(mc.eng, fmt.Sprintf("bus%d", i), cfg.BusBandwidth, cfg.BusOverhead)
	}
	mc.disks = make([]*disk.Disk, cfg.NDisks)
	for d := range mc.disks {
		mc.disks[d] = disk.New(mc.eng, fmt.Sprintf("d%d", d), cfg.Disk, mc.buses[d%cfg.NIOP])
		mc.disks[d].SetFaults(mc.inj.Disk(d))
	}
	f, err := pfs.NewFile(mc.disks, cfg.BlockSize, cfg.NumBlocks(), cfg.Layout, mc.rng)
	if err != nil {
		mc.eng.Close()
		return nil, err
	}
	mc.f = f
	return mc, nil
}

// Close releases the machine's engine resources, then hands the CP
// memory, the disks' stored pages and the TC cache frames back to the
// slab list (after the engine closes, so no proc unwound by Close can
// touch a released slab). The machine's bytes are gone afterwards.
func (mc *machine) Close() {
	mc.eng.Close()
	for _, node := range mc.m.CPs {
		sim.PutSlab(node.Mem)
		node.Mem = nil
	}
	for _, d := range mc.disks {
		d.ReleaseData()
	}
	for _, s := range mc.tc {
		s.ReleaseFrames()
	}
}

// collectSubstrate sums the machine-level metrics — disks, buses,
// interconnect, CPU busy time, fault totals — into r. Call after the
// method counters (TC/DD) are collected: the fault block folds in
// their retry counts.
func (mc *machine) collectSubstrate(r *Result) {
	for _, d := range mc.disks {
		dm := d.Metrics()
		r.Disk.Reads += dm.Reads
		r.Disk.Writes += dm.Writes
		r.Disk.CacheHits += dm.CacheHits
		r.Disk.CacheStream += dm.CacheStreams
		r.Disk.Seeks += dm.SeekCount
		r.Disk.SeekCylinders += dm.SeekCylinders
		r.Disk.QueueWait += dm.QueueWait
		r.Disk.Busy += dm.Busy
	}
	for _, b := range mc.buses {
		r.BusBusy += b.Busy()
	}
	r.NetMsgs = mc.m.Net.Messages()
	r.NetBytes = mc.m.Net.Bytes()
	for _, n := range mc.m.IOPs {
		r.IOPBusy += n.CPU.Busy()
	}
	for _, n := range mc.m.CPs {
		r.CPBusy += n.CPU.Busy()
	}
	if st := mc.inj.Stats(); st != (fault.Stats{}) || r.TC.DiskRetries+r.DD.DiskRetries > 0 {
		r.Faults = FaultTotals{
			DiskErrors:  st.DiskErrors,
			Retries:     r.TC.DiskRetries + r.DD.DiskRetries,
			Recovered:   r.TC.DiskRecovered + r.DD.DiskRecovered,
			Exhausted:   r.TC.DiskLost + r.DD.DiskLost,
			DroppedMsgs: st.DroppedMsgs,
			Resends:     st.Resends,
			Spikes:      st.Spikes,
		}
	}
}

// collectTCFrom sums tcfs server counters into the result; shared by
// the TC and two-phase cases (both run on tcfs servers).
func collectTCFrom(servers []*tcfs.Server) func(r *Result) {
	return func(r *Result) {
		for _, s := range servers {
			sm := s.Metrics()
			r.TC.Requests += sm.Requests
			r.TC.Reads += sm.Reads
			r.TC.Writes += sm.Writes
			r.TC.CacheHits += sm.CacheHits
			r.TC.CacheMiss += sm.CacheMiss
			r.TC.Prefetches += sm.Prefetches
			r.TC.Flushes += sm.Flushes
			r.TC.PartialRMW += sm.PartialRMW
			r.TC.DiskRetries += sm.DiskRetries
			r.TC.DiskRecovered += sm.DiskRecovered
			r.TC.DiskLost += sm.DiskLost
		}
	}
}

// collectDDFrom sums disk-directed server counters into the result.
func collectDDFrom(servers []*core.Server) func(r *Result) {
	return func(r *Result) {
		for _, s := range servers {
			sm := s.Metrics()
			r.DD.Requests += sm.Requests
			r.DD.Blocks += sm.Blocks
			r.DD.Memputs += sm.Memputs
			r.DD.Memgets += sm.Memgets
			r.DD.PartialBlockRMW += sm.PartialBlockRMW
			r.DD.DiskRetries += sm.DiskRetries
			r.DD.DiskRecovered += sm.DiskRecovered
			r.DD.DiskLost += sm.DiskLost
		}
	}
}

// transferClient is the CP side of one collective transfer, as each
// method's client provides it.
type transferClient interface {
	TransferCP(p *sim.Proc, cp int, write bool)
	EndTime() sim.Time
}

// fileSystem is the method under test, built once per run: its servers
// (caches persist across phases, as they would on a real machine), a
// constructor for each collective transfer's client, and the collection
// of the servers' counters.
type fileSystem struct {
	tcServers []*tcfs.Server // traditional-caching IOPs (TC and two-phase)
	newClient func(x *transfer, base []int64) transferClient
	collect   func(r *Result)
}

// buildFileSystem builds cfg's method on the machine.
func buildFileSystem(cfg *Config, mc *machine) (*fileSystem, error) {
	m, f := mc.m, mc.f
	fs := &fileSystem{}
	switch cfg.Method {
	case TraditionalCaching, TwoPhase:
		fs.tcServers = make([]*tcfs.Server, cfg.NIOP)
		for i := range fs.tcServers {
			fs.tcServers[i] = tcfs.NewServer(m, m.IOPs[i], f, cfg.NCP, cfg.TC)
		}
		mc.tc = fs.tcServers
		fs.collect = collectTCFrom(fs.tcServers)
		if cfg.Method == TraditionalCaching {
			fs.newClient = func(x *transfer, base []int64) transferClient {
				c := tcfs.NewClient(m, f, x.acc, fs.tcServers, cfg.TC)
				c.SetMemBase(base)
				return c
			}
		} else {
			fs.newClient = func(x *transfer, base []int64) transferClient {
				return twophase.NewClient(m, f, workload.Offset(x.acc, base), x.conf, x.stage,
					fs.tcServers, cfg.TC, cfg.TP)
			}
		}
	case DiskDirected, DiskDirectedSort:
		prm := cfg.DD
		prm.Presort = cfg.Method == DiskDirectedSort
		servers := make([]*core.Server, cfg.NIOP)
		for i := range servers {
			servers[i] = core.NewServer(m, m.IOPs[i], f, prm)
		}
		fs.collect = collectDDFrom(servers)
		fs.newClient = func(x *transfer, base []int64) transferClient {
			return core.NewClient(m, f, workload.Offset(x.acc, base), servers, prm)
		}
	default:
		return nil, fmt.Errorf("exp: unknown method %v", cfg.Method)
	}
	return fs, nil
}

// Run executes one experiment: the declared workload's phases when
// cfg.Workload is enabled, else the classic whole-file collective
// transfer of cfg.Pattern — which is exactly a one-phase workload.
// Either way the phases run in order, separated by barriers, through
// the selected file-system method. All workload randomness comes from
// dedicated "wl:*" sub-streams of the run seed, so the substrate draws
// are untouched and results are identical for any worker count.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run. inspect, if set, sees the machine of a completed run
// before it closes.
func run(cfg Config, inspect func(*machine)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Workload runs always time their requests (open-arrival runs are
	// latency studies): when the caller did not attach a recorder, attach
	// one filtered to request-end events — one retained event per
	// request. Recorders are passive, so the event sequence and every
	// throughput metric are identical either way. Classic runs have no
	// per-request arrivals to time and skip the recorder.
	latRec := cfg.Trace
	if latRec == nil && cfg.Workload.Enabled() {
		latRec = trace.NewFiltered(trace.KindReqEnd)
		cfg.Trace = latRec
	}
	mc, err := buildMachine(&cfg)
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	eng, m, f := mc.eng, mc.m, mc.f

	res, err := resolve(&cfg, mc.rng)
	if err != nil {
		return nil, err
	}
	lay, err := layOut(&cfg, res)
	if err != nil {
		return nil, err
	}
	for cp, node := range m.CPs {
		node.Mem = sim.GetSlab(int(lay.memBytes[cp]))
	}

	fs, err := buildFileSystem(&cfg, mc)
	if err != nil {
		return nil, err
	}

	phases := make([]phaseExec, len(res.Phases))
	for i := range res.Phases {
		ph := &res.Phases[i]
		base := lay.appBase[i]
		if cfg.Method == TraditionalCaching && !ph.Collective {
			// Traditional caching serves a request stream as issued,
			// honouring its arrival process.
			client := tcfs.NewClient(m, f, nil, fs.tcServers, cfg.TC)
			client.SetMemBase(base)
			phases[i] = phaseExec{
				runCP: func(p *sim.Proc, cp int) { client.StreamCP(p, cp, ph.Streams[cp]) },
				end:   client.EndTime,
			}
			continue
		}
		// A collective cannot start before the phase's requests exist:
		// each CP waits out its arrival makespan (none for a collective
		// phase), then reads collectively, then writes collectively.
		xs := lay.transfers[i]
		clients := make([]transferClient, len(xs))
		for k := range xs {
			clients[k] = fs.newClient(&xs[k], base)
		}
		delay := ph.Delay
		phases[i] = phaseExec{
			runCP: func(p *sim.Proc, cp int) {
				if cp < len(delay) && delay[cp] > 0 {
					p.Sleep(delay[cp])
				}
				for k, c := range clients {
					c.TransferCP(p, cp, xs[k].write)
				}
			},
			end: clients[len(clients)-1].EndTime,
		}
	}

	// Preload the file image when anything reads; seed write buffers
	// with the image of the ranges they will write (so written bytes
	// are verifiable end to end).
	anyRead := false
	for i := range res.Phases {
		ph := &res.Phases[i]
		if (ph.Collective && !ph.Write) || ph.ReadAcc != nil {
			anyRead = true
		}
		fillWrites(ph, lay.appBase[i], m.CPs)
	}
	if anyRead {
		f.Preload()
	}

	for cp := range m.CPs {
		cp := cp
		eng.Go(cpProcName(cp), func(p *sim.Proc) {
			for i := range phases {
				p.Sleep(cfg.BarrierCost) // collective entry cost per phase (negligible, §3)
				phases[i].runCP(p, cp)
			}
		})
	}
	eng.Run()

	var end sim.Time
	for i := range phases {
		if t := phases[i].end(); t > end {
			end = t
		}
	}
	if end == 0 {
		return nil, fmt.Errorf("exp: %v/%s did not complete; blocked procs: %v",
			cfg.Method, cfg.label(), eng.BlockedProcs())
	}

	r := &Result{Config: cfg, Elapsed: end.Duration(), Events: eng.Events(), MovedBytes: res.Bytes}
	sec := r.Elapsed.Seconds()
	r.AggMBps = float64(r.MovedBytes) / sec / MiB
	if cfg.Workload.Enabled() {
		// For request streams the paper's file-bytes-over-time metric is
		// meaningless; both throughput columns report bytes actually moved.
		r.MBps = r.AggMBps
		r.ReqLatency = latRec.RequestLatencies()
	} else {
		r.MBps = float64(cfg.FileBytes) / sec / MiB
	}

	if cfg.Verify {
		r.VerifyErrors = verifyWorkload(res, lay.appBase, f, m)
	}
	fs.collect(r)
	mc.collectSubstrate(r)
	if inspect != nil {
		inspect(mc)
	}
	return r, nil
}

// TracedRun executes one experiment with a fresh event-trace recorder
// attached and returns both. The traced run fires the identical event
// sequence (and reports the identical throughput) as an untraced run of
// the same Config; the recorder holds the time-resolved view — disk
// busy intervals, queue depths, request latencies, per-link messages —
// that the Result's end-of-run totals summarize.
func TracedRun(cfg Config) (*Result, *trace.Recorder, error) {
	rec := trace.New()
	cfg.Trace = rec
	res, err := Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

// TraceTitle is the canonical title for a traced run's artifacts (the
// HTML trace viewer, the utilization timeline): one string shared by
// the CLI and the daemon so both emit byte-identical pages for the
// same configuration.
func TraceTitle(cfg Config) string {
	return fmt.Sprintf("%v %s, %s layout", cfg.Method, cfg.label(), cfg.Layout)
}

// Trial is the aggregate of replicated runs of one configuration.
type Trial struct {
	Results []*Result // per-trial results, in trial order
	MBps    []float64 // per-trial throughput, in trial order
	Mean    float64   // mean throughput over trials
	CV      float64   // coefficient of variation over trials
}

// Trials replicates cfg n times with derived seeds (varying the random
// disk layout and network jitter) and aggregates throughput. Runs are
// sequential; use Runner.Trials to replicate on a worker pool.
func Trials(cfg Config, n int) (*Trial, error) {
	return NewRunner(1, nil).Trials(cfg, n)
}

package main

// probes.go times single layers through their exported calls, each
// shaped like the traffic of the workload it feeds. The probes touch only
// API meant to stay: sim.NewEngine, AtCompletion, Go, Sleep and
// WaitGroup; netsim.New and Send; cluster.New, Memput and Memget;
// hpf.ParsePattern, Decomp and Chunks; and workload, exp and serve entry
// points. Disk, pfs, tcfs and core have no probe: the profile and the
// Result counters measure them.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"ddio/internal/cluster"
	"ddio/internal/core"
	"ddio/internal/exp"
	"ddio/internal/hpf"
	"ddio/internal/netsim"
	"ddio/internal/serve"
	"ddio/internal/sim"
	wl "ddio/internal/workload"
)

// A probe times one layer call. prepare builds the layer for about n
// operations (untimed) and returns the timed part, which reports how many
// operations it performed, and a release for the layer's resources.
type probe struct {
	name    string // metric prefix: <name>_ns and <name>_allocs
	feeds   string // the workload whose traffic it is shaped like
	size    int    // bytes per message or record, 0 when the layer moves none
	cps     int    // CPs of the machine it models (with as many IOPs), 0 when none
	prepare func(n int) (run func() (ops int, err error), release func())
}

func probes() []probe {
	return []probe{
		holdProbe("sim.event_1k", "tc-read-8b", 1<<10),
		holdProbe("sim.event_16k", "dd-write-8b-64", 1<<14),
		{name: "sim.switch", feeds: "tc-read-8b", prepare: prepareSwitch},
		{name: "sim.sleep", feeds: "tc-read-8b", prepare: prepareSleep},
		sendProbe("netsim.send", "tc-read-8b", 8, 16),
		memProbe("cluster.memput8", "tc-read-8b", 8, 16, false),
		memProbe("cluster.memget8", "dd-write-8b-64", 8, 64, true),
		memProbe("cluster.memput8k", "fig3b-sweep", 8192, 16, false),
		decompProbe("hpf.decomp", "tc-read-8b", "rc", exp.MiB/2, 8, 16),
		{name: "workload.resolve", feeds: "serve-mixed", prepare: prepareResolve},
		{name: "exp.cellkey", feeds: "serve-mixed", prepare: prepareCellKey},
		{name: "serve.hit_handler", feeds: "serve-mixed", prepare: prepareHitHandler},
	}
}

// measure runs d long enough to time it (about 100 ms) and returns host
// nanoseconds and heap allocations per operation.
func measure(d probe) (nsPerOp, allocsPerOp float64, err error) {
	const target = 100 * time.Millisecond
	n := 64
	for {
		elapsed, ops, allocs, err := timeProbe(d, n)
		if err != nil {
			return 0, 0, fmt.Errorf("bench: probe %s: %w", d.name, err)
		}
		if elapsed >= target/4 {
			if elapsed < target {
				n = int(float64(n) * float64(target) / float64(elapsed))
				elapsed, ops, allocs, err = timeProbe(d, n)
				if err != nil {
					return 0, 0, fmt.Errorf("bench: probe %s: %w", d.name, err)
				}
			}
			return float64(elapsed.Nanoseconds()) / float64(ops), float64(allocs) / float64(ops), nil
		}
		n *= 4
	}
}

func timeProbe(d probe, n int) (elapsed time.Duration, ops int, allocs uint64, err error) {
	run, release := d.prepare(n)
	defer release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops, err = run()
	elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil && ops < 1 {
		err = fmt.Errorf("performed no operations")
	}
	return elapsed, ops, after.Mallocs - before.Mallocs, err
}

// holdModel is the classic event-queue hold model: every fired event
// schedules one successor a random distance ahead, so the pending set
// stays at its initial size while left successors remain.
type holdModel struct {
	eng     *sim.Engine
	left    int
	pending int // events scheduled and not yet fired
	x       uint64
}

// holdGap is twice the mean distance, in simulated ns, to a successor.
const holdGap = 2000

func (h *holdModel) rand() uint64 {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	return h.x
}

func (h *holdModel) Complete(c sim.Completion, now sim.Time) {
	h.pending--
	if h.left == 0 {
		return
	}
	h.left--
	h.pending++
	h.eng.AtCompletion(now+sim.Time(1+h.rand()%holdGap), c)
}

// newHold primes a hold model with pending events and n successors.
func newHold(pending, n int) *holdModel {
	h := &holdModel{eng: sim.NewEngine(), left: n, x: 88172645463325252}
	for i := 0; i < pending; i++ {
		h.pending++
		h.eng.AtCompletion(sim.Time(1+h.rand()%holdGap), sim.Completion{Target: h})
	}
	return h
}

func holdProbe(name, feeds string, pending int) probe {
	return probe{name: name, feeds: feeds, prepare: func(n int) (func() (int, error), func()) {
		h := newHold(pending, n)
		return func() (int, error) {
			h.eng.Run()
			return n + pending, nil
		}, h.eng.Close
	}}
}

// prepareSwitch ping-pongs two procs through a pair of WaitGroups: every
// operation is one cross-proc wake-up.
func prepareSwitch(n int) (func() (int, error), func()) {
	eng := sim.NewEngine()
	ping := sim.NewWaitGroup(eng, "ping", 1)
	pong := sim.NewWaitGroup(eng, "pong", 1)
	rounds := (n + 1) / 2
	eng.Go("a", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Done()
			pong.Wait(p)
			pong.Add(1)
		}
	})
	eng.Go("b", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			ping.Wait(p)
			ping.Add(1)
			pong.Done()
		}
	})
	return func() (int, error) {
		eng.Run()
		return 2 * rounds, nil
	}, eng.Close
}

// prepareSleep has one proc sleep n times: every operation is a self
// wake-up.
func prepareSleep(n int) (func() (int, error), func()) {
	eng := sim.NewEngine()
	eng.Go("sleeper", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return func() (int, error) {
		eng.Run()
		return n, nil
	}, eng.Close
}

// sendChain keeps one message in flight between two nodes: each delivery
// sends the next until the shared budget runs out.
type sendChain struct {
	net      *netsim.Network
	left     *int
	src, dst int
	size     int
}

func (c *sendChain) Complete(tok sim.Completion, _ sim.Time) {
	if *c.left == 0 {
		return
	}
	*c.left--
	c.net.Send(c.src, c.dst, c.size, sim.Completion{}, tok)
}

// sendProbe sends size-byte messages on the default torus sized for cps
// CPs and as many IOPs, each of cps endpoints keeping one message in
// flight to a partner in the other half.
func sendProbe(name, feeds string, size, cps int) probe {
	return probe{name: name, feeds: feeds, size: size, cps: cps, prepare: func(n int) (func() (int, error), func()) {
		eng := sim.NewEngine()
		net := netsim.New(eng, netsim.DefaultConfig(), 2*cps, sim.NewRand(1))
		left := n
		for i := 0; i < cps; i++ {
			c := &sendChain{net: net, left: &left, src: i, dst: i + cps, size: size}
			eng.AtCompletion(0, sim.Completion{Target: c})
		}
		return func() (int, error) {
			eng.Run()
			return n - left, nil
		}, eng.Close
	}}
}

// memProbe moves size bytes between IOP 0 and each of ncp CPs of an
// ncp-CP, ncp-IOP machine in rounds, as a disk-directed server's buffer
// thread does: Memget when get (write collectives), else Memput (reads).
func memProbe(name, feeds string, size, ncp int, get bool) probe {
	prm := core.DefaultParams()
	return probe{name: name, feeds: feeds, size: size, cps: ncp, prepare: func(n int) (func() (int, error), func()) {
		eng := sim.NewEngine()
		m := cluster.New(eng, netsim.DefaultConfig(), ncp, ncp, sim.NewRand(1))
		bufs := make([][]byte, ncp)
		for cp, node := range m.CPs {
			node.Mem = make([]byte, size)
			bufs[cp] = make([]byte, size)
		}
		rounds := (n + ncp - 1) / ncp
		iop := m.IOPs[0]
		wg := sim.NewWaitGroup(eng, "mem", 0)
		eng.Go("iop0", func(p *sim.Proc) {
			for r := 0; r < rounds; r++ {
				wg.Add(ncp)
				for cp, node := range m.CPs {
					if get {
						m.Memget(iop, node, 0, bufs[cp], prm.MemgetCPU, prm.MemgetRemoteCPU, wg.DoneC())
					} else {
						m.Memput(iop, node, 0, bufs[cp], prm.MemputCPU, sim.Completion{}, wg.DoneC())
					}
				}
				wg.Wait(p)
			}
		})
		return func() (int, error) {
			eng.Run()
			if wg.Count() != 0 {
				return 0, fmt.Errorf("%d transfers never completed", wg.Count())
			}
			return rounds * ncp, nil
		}, eng.Close
	}}
}

// decompProbe decomposes a pattern and lists every CP's chunks, the
// per-run set-up a transfer does before it issues requests.
func decompProbe(name, feeds, pattern string, fileBytes int64, record, ncp int) probe {
	return probe{name: name, feeds: feeds, size: record, cps: ncp, prepare: func(n int) (func() (int, error), func()) {
		pat, err := hpf.ParsePattern(pattern)
		return func() (int, error) {
			if err != nil {
				return 0, err
			}
			for i := 0; i < n; i++ {
				dec, err := pat.Decomp(fileBytes, record, ncp)
				if err != nil {
					return 0, err
				}
				for cp := 0; cp < ncp; cp++ {
					dec.Chunks(cp)
				}
			}
			return n, nil
		}, func() {}
	}}
}

// smokeCells expands a smoke preset with seed 1, one trial.
func smokeCells(preset string) ([]exp.Config, error) {
	spec, ok := exp.LookupPreset(preset)
	if !ok {
		return nil, fmt.Errorf("no %s preset", preset)
	}
	_, cfgs, err := spec.Expand(exp.Options{Trials: 1, Seed: 1, Verify: true})
	return cfgs, err
}

// prepareResolve resolves the wl-smoke workload template against its
// cells' geometry, the request-stream sampling every workload cell of
// serve-mixed's misses does.
func prepareResolve(n int) (func() (int, error), func()) {
	cfgs, err := smokeCells("wl-smoke")
	return func() (int, error) {
		if err != nil {
			return 0, err
		}
		c := cfgs[0]
		shape := wl.Shape{NCP: c.NCP, FileBytes: c.FileBytes, BlockSize: c.BlockSize, RecordSize: c.RecordSize}
		for i := 0; i < n; i++ {
			if _, err := c.Workload.Resolve(shape, sim.NewRand(int64(i))); err != nil {
				return 0, err
			}
		}
		return n, nil
	}, func() {}
}

// prepareCellKey hashes the cells of a surface-smoke sweep, the daemon's
// per-cell cache lookup.
func prepareCellKey(n int) (func() (int, error), func()) {
	cfgs, err := smokeCells("surface-smoke")
	return func() (int, error) {
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			exp.CellKey(cfgs[i%len(cfgs)])
		}
		return n, nil
	}, func() {}
}

// hitBody is the sweep the handler probe serves from a warm cache.
const hitBody = `{"preset":"surface-smoke","seed":1}`

// prepareHitHandler warms a daemon with one sweep, then serves it from
// the cache through ServeHTTP with no socket.
func prepareHitHandler(n int) (func() (int, error), func()) {
	srv := serve.New(serve.Config{})
	post := func(wantHit bool) error {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps?format=json", strings.NewReader(hitBody)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		if h := rec.Header(); wantHit && h.Get("X-Cache-Hits") != h.Get("X-Cells") {
			return fmt.Errorf("not a cache hit: %s of %s cells", h.Get("X-Cache-Hits"), h.Get("X-Cells"))
		}
		return nil
	}
	warm := post(false)
	return func() (int, error) {
		if warm != nil {
			return 0, warm
		}
		for i := 0; i < n; i++ {
			if err := post(true); err != nil {
				return 0, err
			}
		}
		return n, nil
	}, func() {}
}

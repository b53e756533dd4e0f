package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"ddio/internal/exp"
	"ddio/internal/serve"
)

// serveWorkload drives an in-process daemon on a loopback listener with a
// closed loop of loadThreads keep-alive clients: callers wait for their
// reply before sending the next request.
//
// The request stream is a pure function of the seed. Every missEvery-th
// request names a new sweep spec (a smoke preset with a fresh seed), so it
// misses the cell cache and simulates; every other request repeats one of
// the window newest earlier specs and is served from the cache.
//
// The daemon's cache holds serveCacheCells cells, a quarter of the
// default, so it fills within the first seconds and the run measures a
// daemon at steady state, evicting as a long-running one does; with the
// default 4,096 cells it would still be filling at the end of a run and
// its memory would track how far the run got. The window keeps eviction
// away from live cells: the cells used since any live spec's last request
// come from at most 2·window+1 specs of at most maxSpecCells cells, which
// fits the cache, so no cell a repeat needs is evicted and each distinct
// cell simulates exactly once however long the run.
type serveWorkload struct {
	presets   []string // smoke presets, rotated over new specs
	formats   []string // response formats, drawn per request
	missEvery int
	window    int
}

const (
	serveCacheCells = 1024
	maxSpecCells    = 8 // the most cells a smoke preset expands to (surface-smoke)
)

func serveMixed() *serveWorkload {
	return &serveWorkload{
		presets:   []string{"surface-smoke", "degrade-smoke", "wl-smoke", "ext-smoke"},
		formats:   []string{"json", "text", "csv", "svg"},
		missEvery: 60,
		window:    (serveCacheCells/maxSpecCells - 1) / 2,
	}
}

// request is one POST /v1/sweeps of the stream.
type request struct {
	spec   int // index of the spec the request names
	format string
}

// stream generates the request list in order.
type stream struct {
	w         *serveWorkload
	rng       *rand.Rand
	specSeeds []int64 // seed of spec k
	n         int     // requests generated so far
}

func newStream(w *serveWorkload, seed int64) *stream {
	return &stream{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (st *stream) next() request {
	i := st.n
	st.n++
	var k int
	if i%st.w.missEvery == 0 {
		k = len(st.specSeeds)
		st.specSeeds = append(st.specSeeds, st.rng.Int63n(1<<40))
	} else {
		// Repeat a spec introduced at least one new-spec slot ago (spec 0
		// when it is the only one), so repeats seldom race the cold
		// request still simulating it.
		newest := len(st.specSeeds) - 1
		lo, hi := max(0, newest-st.w.window), max(1, newest)
		k = lo + st.rng.Intn(hi-lo)
	}
	return request{spec: k, format: st.w.formats[st.rng.Intn(len(st.w.formats))]}
}

// preset is the preset spec k names.
func (w *serveWorkload) preset(k int) string { return w.presets[k%len(w.presets)] }

// specConfigs returns the cells spec k with the given seed expands to
// under the daemon's option defaults (5 trials, 10 MiB, verify on; the
// smoke presets override trials and file size themselves).
func (w *serveWorkload) specConfigs(k int, seed int64) ([]exp.Config, error) {
	spec, ok := exp.LookupPreset(w.preset(k))
	if !ok {
		return nil, fmt.Errorf("bench: no preset %q", w.preset(k))
	}
	_, cfgs, err := spec.Expand(exp.Options{Trials: 5, FileBytes: 10 * exp.MiB, Seed: seed, Verify: true})
	return cfgs, err
}

func (w *serveWorkload) setup(seed int64, _ *pins) (session, *pass, error) {
	s := &serveSession{
		w:         w,
		st:        newStream(w, seed),
		transport: &http.Transport{MaxIdleConnsPerHost: loadThreads, MaxConnsPerHost: loadThreads},
		first:     map[request][sha256.Size]byte{},
	}
	s.client = &http.Client{Transport: s.transport}
	s.ts = httptest.NewServer(serve.New(serve.Config{CacheCells: serveCacheCells}))
	if err := s.healthz(); err != nil {
		s.close()
		return nil, nil, err
	}
	warm := &pass{}
	s.do(warm, s.nextRequest())
	return s, warm, nil
}

type serveSession struct {
	w         *serveWorkload
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client

	mu    sync.Mutex
	st    *stream
	first map[request][sha256.Size]byte // digest of the first response per (spec, format)
}

func (s *serveSession) healthz() error {
	resp, err := s.client.Get(s.ts.URL + "/healthz")
	if err != nil {
		return fmt.Errorf("bench: daemon health check: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("bench: daemon health check: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: daemon health check: status %d", resp.StatusCode)
	}
	return nil
}

func (s *serveSession) nextRequest() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.next()
}

func (s *serveSession) body(k int) string {
	s.mu.Lock()
	seed := s.st.specSeeds[k]
	s.mu.Unlock()
	return fmt.Sprintf(`{"preset":%q,"seed":%d}`, s.w.preset(k), seed)
}

// do sends one request and records its latency and outcome: hit when
// every cell came from the cache (X-Cache-Hits == X-Cells), miss
// otherwise.
func (s *serveSession) do(p *pass, q request) {
	body := s.body(q.spec)
	start := time.Now()
	resp, err := s.client.Post(s.ts.URL+"/v1/sweeps?format="+q.format, "application/json", strings.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	secs := time.Since(start).Seconds()
	hit := false
	if err == nil {
		hit, err = s.check(q, resp, data)
	}
	if err != nil {
		err = fmt.Errorf("%s format %s: %w", body, q.format, err)
	}
	p.record(secs, err)
	p.mu.Lock()
	if hit {
		p.hitSecs = append(p.hitSecs, secs)
	} else {
		p.missSecs = append(p.missSecs, secs)
	}
	p.mu.Unlock()
}

// check gates one response: status 200, and bytes identical to the first
// response for the same (spec, format).
func (s *serveSession) check(q request, resp *http.Response, data []byte) (hit bool, err error) {
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
	}
	cells, err1 := strconv.Atoi(resp.Header.Get("X-Cells"))
	hits, err2 := strconv.Atoi(resp.Header.Get("X-Cache-Hits"))
	if err1 != nil || err2 != nil || cells < 1 {
		return false, fmt.Errorf("bad X-Cells %q / X-Cache-Hits %q", resp.Header.Get("X-Cells"), resp.Header.Get("X-Cache-Hits"))
	}
	sum := sha256.Sum256(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if want, ok := s.first[q]; !ok {
		s.first[q] = sum
	} else if sum != want {
		return false, fmt.Errorf("response differs from the first one for the same request")
	}
	return hits == cells, nil
}

// run ignores p.next: the request stream is the session's own.
func (s *serveSession) run(p *pass, deadline time.Time) {
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadThreads; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				s.do(p, s.nextRequest())
			}
		}()
	}
	wg.Wait()
	p.wall += time.Since(start).Seconds()
}

// finish checks that the daemon simulated each distinct cell the stream
// named exactly once.
func (s *serveSession) finish() (int64, error) {
	want := map[string]bool{}
	for k, seed := range s.st.specSeeds {
		cfgs, err := s.w.specConfigs(k, seed)
		if err != nil {
			return 0, err
		}
		for _, cfg := range cfgs {
			want[exp.CellKey(cfg)] = true
		}
	}
	resp, err := s.client.Get(s.ts.URL + "/v1/stats")
	if err != nil {
		return 0, fmt.Errorf("bench: daemon stats: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		CellsSimulated int64 `json:"cells_simulated"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, fmt.Errorf("bench: daemon stats: %w", err)
	}
	if st.CellsSimulated != int64(len(want)) {
		return st.CellsSimulated, fmt.Errorf("daemon simulated %d cells, the requests name %d distinct cells",
			st.CellsSimulated, len(want))
	}
	return st.CellsSimulated, nil
}

func (s *serveSession) traceConfig() exp.Config {
	cfgs, err := s.w.specConfigs(0, s.st.specSeeds[0])
	if err != nil {
		panic(err) // spec 0 already expanded and served during set-up
	}
	return cfgs[0]
}

func (s *serveSession) close() {
	s.ts.Close()
	s.transport.CloseIdleConnections()
}

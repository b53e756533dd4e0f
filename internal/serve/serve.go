// Package serve is the sweep-serving layer behind cmd/ddiosimd: a
// long-running HTTP daemon that accepts declarative sweep specs (the same
// SweepSpec documents cmd/figures runs) and returns the rendered tables,
// JSON, CSV, or SVG figures.
//
// Every simulation is a deterministic pure function of its resolved
// Config, which the serving layer exploits twice:
//
//   - Completed cells live in an LRU keyed by exp.CellKey — the canonical
//     hash of (resolved config, seed, trial) — so a repeated figure
//     request costs zero simulation and returns byte-identical bytes.
//   - In-flight cells are deduplicated (singleflight), so a thundering
//     herd of identical cold requests costs one simulation per cell.
//
// Requests run through a bounded job queue over exp.Runner with admission
// control: when the queue is full the daemon answers 429 with Retry-After
// instead of accepting unbounded work. Async submission (?async=1) plus
// GET /v1/jobs/{id} cover long sweeps; GET /v1/stats and GET /metrics
// expose cache hit rates, queue depth, and cells simulated.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ddio/internal/exp"
	"ddio/internal/plot"
)

// maxBodyBytes bounds request bodies; specs and plans are tiny.
const maxBodyBytes = 1 << 20

// Config tunes the daemon. Zero values select the defaults.
type Config struct {
	// CacheCells is the completed-cell LRU capacity (default 4096).
	CacheCells int
	// QueueDepth bounds admitted requests, running plus queued; beyond
	// it the daemon answers 429 (default 16).
	QueueDepth int
	// Concurrency is how many admitted jobs simulate at once; the rest
	// wait queued (default 2).
	Concurrency int
	// Workers is the per-sweep runner fan-out, the -j of the CLIs
	// (default 0 = GOMAXPROCS).
	Workers int
	// MaxCells rejects requests expanding to more (cell × trial) runs
	// than this with 422 (default 4096).
	MaxCells int
	// Trials, FileMB, Seed are the option defaults applied when a sweep
	// request omits them — matching the cmd/figures flag defaults
	// (5 trials, 10 MiB, seed 42) so served bytes match CLI bytes.
	Trials int
	FileMB int64
	Seed   int64
	// JobHistory is how many finished jobs remain queryable (default 64).
	JobHistory int
	// Log, when non-nil, receives one line per admitted job.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheCells == 0 {
		c.CacheCells = 4096
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.Concurrency == 0 {
		c.Concurrency = 2
	}
	if c.MaxCells == 0 {
		c.MaxCells = 4096
	}
	if c.Trials == 0 {
		c.Trials = 5
	}
	if c.FileMB == 0 {
		c.FileMB = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.JobHistory == 0 {
		c.JobHistory = 64
	}
	return c
}

// Server is the daemon: an http.Handler serving the /v1 API.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	cache  *cellCache
	flight *flightGroup
	jobs   *jobTable
	sem    chan struct{} // concurrency slots; holders are "running"
	httpm  *httpMetrics  // per-endpoint durations and response formats

	// runCell executes one cell for real (exp.Run); tests substitute it
	// to count executions and to stub simulation cost.
	runCell func(exp.Config) (*exp.Result, error)

	inflight       atomic.Int64 // admitted jobs: queued + running
	active         atomic.Int64 // jobs holding a concurrency slot
	admitted       atomic.Int64
	rejected       atomic.Int64
	cellsSimulated atomic.Int64
	flightShared   atomic.Int64
}

// New returns a daemon with the given configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   newCellCache(cfg.CacheCells),
		flight:  newFlightGroup(),
		jobs:    newJobTable(cfg.JobHistory),
		sem:     make(chan struct{}, cfg.Concurrency),
		httpm:   newHTTPMetrics(),
		runCell: exp.Run,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/presets", s.handlePresets)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("POST /v1/runs", s.handleRuns)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler, timing every request into the
// per-endpoint duration histogram exposed at GET /metrics.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mux.ServeHTTP(w, r)
	s.httpm.observe(endpointLabel(r.URL.Path), time.Since(start).Seconds())
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// admit reserves a queue slot; a false return means the bounded queue is
// full and the caller must answer 429.
func (s *Server) admit() bool {
	for {
		n := s.inflight.Load()
		if n >= int64(s.cfg.QueueDepth) {
			s.rejected.Add(1)
			return false
		}
		if s.inflight.CompareAndSwap(n, n+1) {
			s.admitted.Add(1)
			return true
		}
	}
}

func (s *Server) release() { s.inflight.Add(-1) }

// httpError writes a plain-text error. Client mistakes are 4xx; only
// simulation failures surface as 500.
func httpError(w http.ResponseWriter, code int, err error) {
	http.Error(w, err.Error(), code)
}

// tooBusy answers an admission-control rejection.
func (s *Server) tooBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, fmt.Sprintf("serve: job queue full (%d admitted); retry later", s.cfg.QueueDepth),
		http.StatusTooManyRequests)
}

// options resolves a sweep request's option overrides over the serving
// defaults, exactly as the cmd/figures flags would.
func (s *Server) options(q *SweepRequest) exp.Options {
	o := exp.Options{
		Trials:    s.cfg.Trials,
		FileBytes: s.cfg.FileMB * exp.MiB,
		Seed:      s.cfg.Seed,
		Verify:    true,
		Workers:   s.cfg.Workers,
	}
	if q.Trials > 0 {
		o.Trials = q.Trials
	}
	if q.FileMB > 0 {
		o.FileBytes = q.FileMB * exp.MiB
	}
	if q.Seed != nil {
		o.Seed = *q.Seed
	}
	if q.Verify != nil {
		o.Verify = *q.Verify
	}
	o.Faults = q.Faults
	o.Workload = q.Workload
	return o
}

// cachedRunCell is the cache/singleflight wrapper wired into the
// experiment runner (Options.RunCell): cache hit, else join the in-flight
// leader, else simulate once and publish to the cache before the flight
// entry is released. hits counts this request's cache hits.
func (s *Server) cachedRunCell(hits *atomic.Int64) func(exp.Config) (*exp.Result, error) {
	return func(cfg exp.Config) (*exp.Result, error) {
		if cfg.Trace != nil {
			// A traced run's product is its recorder, which belongs to
			// exactly one run: never cached, never deduplicated.
			s.cellsSimulated.Add(1)
			return s.runCell(cfg)
		}
		key := exp.CellKey(cfg)
		if res, ok := s.cache.Get(key); ok {
			hits.Add(1)
			return res, nil
		}
		res, err, shared := s.flight.Do(key, func() (*exp.Result, error) {
			// Re-check under the flight: a previous leader may have
			// published between our cache miss and our flight entry.
			if res, ok := s.cache.Get(key); ok {
				hits.Add(1)
				return res, nil
			}
			res, err := s.runCell(cfg)
			if err == nil {
				s.cellsSimulated.Add(1)
				s.cache.Add(key, res)
			}
			return res, err
		})
		if shared {
			s.flightShared.Add(1)
		}
		return res, err
	}
}

// errNoTimeFigure answers a timesvg request for a sweep that has no
// time-domain view.
var errNoTimeFigure = errors.New("serve: format timesvg needs a degradation sweep (a faults template) or a workload sweep")

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	b, err := json.MarshalIndent(exp.Presets(), "", "  ")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (s *Server) handleSweeps(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q, err := ParseSweepRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "text"
	}
	art, ok := plot.LookupArtifact(format)
	if !ok {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown format %q", format))
		return
	}
	spec, err := q.ResolveSpec()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts := s.options(q)
	if spec, err = spec.Resolve(opts); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if format == "timesvg" && spec.Faults == nil && spec.Workload == nil {
		httpError(w, http.StatusUnprocessableEntity, errNoTimeFigure)
		return
	}
	// Size the request BEFORE expanding it: the (value × method ×
	// pattern × trial) product is known from the spec alone, and
	// checking it first keeps a hostile "trials": 1e9 body from
	// allocating a billion-config grid just to be told 422.
	trials := opts.Trials
	if spec.Trials > 0 {
		trials = spec.Trials
	}
	if trials < 1 {
		trials = 1
	}
	if trials > s.cfg.MaxCells {
		httpError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("serve: %d trials per cell, above the %d-run limit", trials, s.cfg.MaxCells))
		return
	}
	n := trials
	for _, f := range []int{len(spec.Values), len(spec.Values2), len(spec.Methods), len(spec.Patterns)} {
		if f > 0 {
			n *= f
		}
		if n > s.cfg.MaxCells {
			httpError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("serve: sweep expands to over %d runs, above the %d-run limit", n, s.cfg.MaxCells))
			return
		}
	}
	_, cfgs, err := spec.Expand(opts)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit() {
		s.tooBusy(w)
		return
	}
	j := s.jobs.add("sweep", spec.Name, format)
	s.logf("job %s: sweep %s format=%s cells=%d", j.snapshot().ID, spec.Name, format, len(cfgs))

	if r.URL.Query().Get("async") != "" {
		go func() {
			defer s.release()
			s.runSweep(j, spec, opts, art, len(cfgs))
		}()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		v := j.snapshot()
		b, _ := json.MarshalIndent(v, "", "  ")
		w.Write(append(b, '\n'))
		return
	}

	s.runSweep(j, spec, opts, art, len(cfgs))
	s.release()
	s.writeJobResult(w, j)
}

// runSweep executes one admitted sweep job: waits for a concurrency
// slot, runs the sweep with the cache/singleflight cell hook, renders
// the requested artifact, and finishes the job.
func (s *Server) runSweep(j *job, spec *exp.SweepSpec, opts exp.Options, art *plot.Artifact, cells int) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	s.active.Add(1)
	defer s.active.Add(-1)
	j.setState(JobRunning)

	var hits atomic.Int64
	opts.RunCell = s.cachedRunCell(&hits)
	res, err := spec.RunFull(opts)
	if err != nil {
		j.finish(nil, "", cells, hits.Load(), err)
		return
	}
	body, err := art.Render(res)
	if err == nil && body == nil {
		err = errNoTimeFigure
	}
	j.finish(body, art.MIME, cells, hits.Load(), err)
}

// writeJobResult writes a finished job's body (sync path). Simulation
// failures are 500s; the body bytes of a success are exactly the
// rendered artifact, so cold and cache-hit responses compare equal.
func (s *Server) writeJobResult(w http.ResponseWriter, j *job) {
	<-j.done
	v := j.snapshot()
	w.Header().Set("X-Job-ID", v.ID)
	w.Header().Set("X-Cells", fmt.Sprintf("%d", v.Cells))
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d", v.CacheHits))
	body, ctype, ok := j.result()
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("%s", v.Error))
		return
	}
	s.httpm.countResponse(v.Kind+"s", v.Format)
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	q, err := ParseRunRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	traceFmt := r.URL.Query().Get("trace")
	if traceFmt != "" && traceFmt != "jsonl" && traceFmt != "html" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("serve: unknown trace format %q (want jsonl or html)", traceFmt))
		return
	}
	cfg, err := q.Config()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit() {
		s.tooBusy(w)
		return
	}
	defer s.release()
	runFormat := "summary"
	if traceFmt != "" {
		runFormat = traceFmt
	}
	j := s.jobs.add("run", q.Method+"/"+q.Pattern, runFormat)
	s.logf("job %s: run %s/%s trace=%q", j.snapshot().ID, q.Method, q.Pattern, traceFmt)

	s.sem <- struct{}{}
	s.active.Add(1)
	j.setState(JobRunning)
	release := func() {
		s.active.Add(-1)
		<-s.sem
	}

	if traceFmt != "" {
		res, rec, err := exp.TracedRun(cfg)
		s.cellsSimulated.Add(1)
		release()
		if err != nil {
			j.finish(nil, "", 1, 0, err)
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		var buf strings.Builder
		ctype := "application/x-ndjson"
		if traceFmt == "html" {
			// The explorable trace viewer — byte-identical to the page
			// ddiosim -tracehtml writes for the same configuration.
			ctype = "text/html; charset=utf-8"
			err = rec.WriteHTML(&buf, exp.TraceTitle(cfg))
		} else {
			err = rec.WriteJSONL(&buf)
		}
		if err != nil {
			j.finish(nil, "", 1, 0, err)
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		body := []byte(buf.String())
		j.finish(body, ctype, 1, 0, nil)
		s.httpm.countResponse("runs", traceFmt)
		w.Header().Set("X-Job-ID", j.snapshot().ID)
		w.Header().Set("X-Trace-Events", fmt.Sprintf("%d", rec.Len()))
		w.Header().Set("X-MBps", fmt.Sprintf("%.3f", res.MBps))
		w.Header().Set("Content-Type", ctype)
		w.Write(body)
		return
	}

	var hits atomic.Int64
	res, err := s.cachedRunCell(&hits)(cfg)
	release()
	if err != nil {
		j.finish(nil, "", 1, hits.Load(), err)
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	sum := summarize(res, hits.Load() > 0)
	attachLatency(sum, res)
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		j.finish(nil, "", 1, hits.Load(), err)
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	body = append(b, '\n')
	j.finish(body, "application/json", 1, hits.Load(), nil)
	s.writeJobResult(w, j)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	b, _ := json.MarshalIndent(j.snapshot(), "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("serve: no such job"))
		return
	}
	v := j.snapshot()
	switch v.State {
	case JobQueued, JobRunning:
		httpError(w, http.StatusConflict, fmt.Errorf("serve: job %s is %s; poll /v1/jobs/%s", v.ID, v.State, v.ID))
		return
	case JobFailed:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("%s", v.Error))
		return
	}
	body, ctype, _ := j.result()
	s.httpm.countResponse("jobs", v.Format)
	w.Header().Set("Content-Type", ctype)
	w.Write(body)
}

// Stats is the JSON shape of GET /v1/stats.
type Stats struct {
	Cache          cacheStats `json:"cache"`
	CellsSimulated int64      `json:"cells_simulated"`
	FlightShared   int64      `json:"singleflight_shared"`
	JobsAdmitted   int64      `json:"jobs_admitted"`
	JobsRejected   int64      `json:"jobs_rejected"`
	JobsActive     int64      `json:"jobs_active"`
	QueueDepth     int64      `json:"queue_depth"`
	QueueCapacity  int        `json:"queue_capacity"`
}

// StatsSnapshot returns the daemon's current counters.
func (s *Server) StatsSnapshot() Stats {
	active := s.active.Load()
	return Stats{
		Cache:          s.cache.Stats(),
		CellsSimulated: s.cellsSimulated.Load(),
		FlightShared:   s.flightShared.Load(),
		JobsAdmitted:   s.admitted.Load(),
		JobsRejected:   s.rejected.Load(),
		JobsActive:     active,
		QueueDepth:     s.inflight.Load() - active,
		QueueCapacity:  s.cfg.QueueDepth,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	b, _ := json.MarshalIndent(s.StatsSnapshot(), "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.StatsSnapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "ddiosimd_cache_hits_total %d\n", st.Cache.Hits)
	fmt.Fprintf(&b, "ddiosimd_cache_misses_total %d\n", st.Cache.Misses)
	fmt.Fprintf(&b, "ddiosimd_cache_evictions_total %d\n", st.Cache.Evictions)
	fmt.Fprintf(&b, "ddiosimd_cache_entries %d\n", st.Cache.Entries)
	fmt.Fprintf(&b, "ddiosimd_cache_capacity %d\n", st.Cache.Capacity)
	fmt.Fprintf(&b, "ddiosimd_cells_simulated_total %d\n", st.CellsSimulated)
	fmt.Fprintf(&b, "ddiosimd_singleflight_shared_total %d\n", st.FlightShared)
	fmt.Fprintf(&b, "ddiosimd_jobs_admitted_total %d\n", st.JobsAdmitted)
	fmt.Fprintf(&b, "ddiosimd_jobs_rejected_total %d\n", st.JobsRejected)
	fmt.Fprintf(&b, "ddiosimd_jobs_active %d\n", st.JobsActive)
	fmt.Fprintf(&b, "ddiosimd_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(&b, "ddiosimd_queue_capacity %d\n", st.QueueCapacity)
	s.httpm.emit(&b)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, b.String())
}

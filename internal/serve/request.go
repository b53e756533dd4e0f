package serve

// request.go is the daemon's wire layer: the JSON envelopes POST
// /v1/sweeps and POST /v1/runs accept, their strict parsing (unknown
// fields and malformed JSON are 400s, never panics — the fuzz target
// pins this), and their resolution into validated exp values. Field
// order in the JSON never matters: envelopes decode into structs before
// anything is hashed, so reordered-but-equal requests resolve to equal
// configs and therefore equal cell keys.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/stats"
	"ddio/internal/workload"
)

// SweepRequest is the body of POST /v1/sweeps: the sweep to run — a
// built-in preset by name or an inline SweepSpec — plus the options the
// cmd/figures flags would carry. Omitted options default to the figures
// CLI defaults (5 trials, 10 MiB, seed 42, verification on), so a served
// sweep is byte-identical to the CLI's output for the same inputs.
type SweepRequest struct {
	// Preset names a built-in sweep spec (GET /v1/presets lists them).
	// Exactly one of Preset and Spec must be set.
	Preset string `json:"preset,omitempty"`
	// Spec is an inline sweep spec, the same JSON documents
	// `figures -sweep file.json` accepts.
	Spec *exp.SweepSpec `json:"spec,omitempty"`

	// Trials and FileMB override the serving defaults, exactly like the
	// -trials and -filemb flags (specs with their own overrides, e.g.
	// the smoke presets, still take precedence over both).
	Trials int   `json:"trials,omitempty"`
	FileMB int64 `json:"filemb,omitempty"`
	// Seed is the base seed (-seed; default 42). Pointer so an explicit
	// 0 is distinguishable from omitted.
	Seed *int64 `json:"seed,omitempty"`
	// Verify toggles end-to-end data verification (-verify; default on).
	Verify *bool `json:"verify,omitempty"`
	// Faults is a fault plan applied to every run (-faults) as the
	// sweep's fault-plan template (exp.SweepSpec.Resolve); a spec with
	// its own template takes precedence, mirroring the CLI.
	Faults *fault.Plan `json:"faults,omitempty"`
	// Workload is a request-stream spec applied to every run (-workload)
	// as the sweep's workload template (exp.SweepSpec.Resolve); a spec
	// with its own template takes precedence and a spec that varies the
	// pattern rejects it, mirroring the CLI.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// ParseSweepRequest parses and validates one POST /v1/sweeps body.
// Unknown fields anywhere in the envelope — including inside the inline
// spec and fault plan — are rejected so typos fail loudly.
func ParseSweepRequest(data []byte) (*SweepRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q SweepRequest
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("serve: parsing sweep request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after sweep request")
	}
	switch {
	case q.Preset == "" && q.Spec == nil:
		return nil, fmt.Errorf("serve: sweep request needs a preset name or an inline spec")
	case q.Preset != "" && q.Spec != nil:
		return nil, fmt.Errorf("serve: sweep request has both a preset and an inline spec")
	case q.Trials < 0 || q.FileMB < 0:
		return nil, fmt.Errorf("serve: negative trials or filemb")
	}
	if q.Spec != nil {
		if err := q.Spec.Validate(); err != nil {
			return nil, err
		}
	}
	if err := q.Faults.Validate(0); err != nil {
		return nil, err
	}
	if err := q.Workload.Validate(nil); err != nil {
		return nil, err
	}
	return &q, nil
}

// ResolveSpec returns the validated spec the request denotes.
func (q *SweepRequest) ResolveSpec() (*exp.SweepSpec, error) {
	if q.Spec != nil {
		return q.Spec, nil
	}
	spec, ok := exp.LookupPreset(q.Preset)
	if !ok {
		return nil, fmt.Errorf("serve: unknown sweep preset %q", q.Preset)
	}
	return spec, nil
}

// RunRequest is the body of POST /v1/runs: one experiment, described the
// way the cmd/ddiosim flags describe it. Zero-valued fields defer to the
// paper's Table 1 defaults (16 CPs/IOPs/disks, 8 KB records, seed 1).
type RunRequest struct {
	Method  string      `json:"method"`           // "tc", "ddio", "ddio-sort", "2phase"
	Pattern string      `json:"pattern"`          // paper shorthand, e.g. "ra", "rc", "wb"
	Layout  string      `json:"layout,omitempty"` // "contiguous" or "random-blocks" (default)
	CPs     int         `json:"cps,omitempty"`    // compute processors
	IOPs    int         `json:"iops,omitempty"`   // I/O processors
	Disks   int         `json:"disks,omitempty"`  // disks
	FileMB  int64       `json:"filemb,omitempty"` // file size in MiB (default 10)
	Record  int         `json:"record,omitempty"` // record size in bytes (default 8192)
	Seed    *int64      `json:"seed,omitempty"`   // root seed (default 1)
	Verify  *bool       `json:"verify,omitempty"` // end-to-end verification (default on)
	Faults  *fault.Plan `json:"faults,omitempty"` // fault plan for this run

	// Workload, when set, replaces the collective transfer with the
	// spec's request streams (see internal/workload); Pattern then only
	// labels the run.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// ParseRunRequest parses and validates one POST /v1/runs body.
func ParseRunRequest(data []byte) (*RunRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var q RunRequest
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("serve: parsing run request: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after run request")
	}
	if _, err := q.Config(); err != nil {
		return nil, err
	}
	return &q, nil
}

// Config resolves the request into a validated experiment configuration.
func (q *RunRequest) Config() (exp.Config, error) {
	cfg := exp.DefaultConfig()
	m, err := exp.ParseMethod(q.Method)
	if err != nil {
		return cfg, err
	}
	cfg.Method = m
	if _, err := hpf.ParsePattern(q.Pattern); err != nil {
		return cfg, err
	}
	cfg.Pattern = q.Pattern
	if q.Layout != "" {
		layout, err := pfs.ParseLayout(q.Layout)
		if err != nil {
			return cfg, err
		}
		cfg.Layout = layout
	}
	if q.CPs < 0 || q.IOPs < 0 || q.Disks < 0 || q.FileMB < 0 || q.Record < 0 {
		return cfg, fmt.Errorf("serve: negative machine shape in run request")
	}
	if q.CPs > 0 {
		cfg.NCP = q.CPs
	}
	if q.IOPs > 0 {
		cfg.NIOP = q.IOPs
	}
	if q.Disks > 0 {
		cfg.NDisks = q.Disks
	}
	if q.FileMB > 0 {
		cfg.FileBytes = q.FileMB * exp.MiB
	}
	if q.Record > 0 {
		cfg.RecordSize = q.Record
	}
	if q.Seed != nil {
		cfg.Seed = *q.Seed
	}
	if q.Verify != nil {
		cfg.Verify = *q.Verify
	}
	cfg.Faults = q.Faults
	cfg.Workload = q.Workload
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// RunSummary is the JSON response of POST /v1/runs: the run's reported
// throughput and substrate totals, plus its canonical cell key (the
// cache identity of this exact configuration).
type RunSummary struct {
	Method       string          `json:"method"`
	Pattern      string          `json:"pattern"`
	Layout       string          `json:"layout"`
	CPs          int             `json:"cps"`
	IOPs         int             `json:"iops"`
	Disks        int             `json:"disks"`
	FileBytes    int64           `json:"file_bytes"`
	RecordSize   int             `json:"record_size"`
	Seed         int64           `json:"seed"`
	MBps         float64         `json:"mbps"`
	AggMBps      float64         `json:"agg_mbps"`
	ElapsedNS    int64           `json:"elapsed_ns"`
	Events       int64           `json:"events"`
	VerifyErrors int             `json:"verify_errors"`
	Faults       exp.FaultTotals `json:"faults"`
	// ReqLatency carries the per-request latency percentiles of a
	// workload run (seconds); omitted for classic whole-file runs.
	ReqLatency *stats.Summary `json:"req_latency,omitempty"`
	CellKey    string         `json:"cell_key"`
	Cached     bool           `json:"cached"` // served from the cell cache
}

// summarize renders one run result for the wire.
func summarize(res *exp.Result, cached bool) *RunSummary {
	cfg := res.Config
	return &RunSummary{
		Method:  cfg.Method.String(),
		Pattern: cfg.Pattern,
		Layout:  cfg.Layout.String(),
		CPs:     cfg.NCP, IOPs: cfg.NIOP, Disks: cfg.NDisks,
		FileBytes: cfg.FileBytes, RecordSize: cfg.RecordSize, Seed: cfg.Seed,
		MBps: res.MBps, AggMBps: res.AggMBps,
		ElapsedNS: res.Elapsed.Nanoseconds(), Events: res.Events,
		VerifyErrors: res.VerifyErrors, Faults: res.Faults,
		CellKey: exp.CellKey(cfg), Cached: cached,
	}
}

// attachLatency adds a workload run's request-latency summary to the
// wire shape; classic runs carry none and keep their JSON unchanged.
func attachLatency(sum *RunSummary, res *exp.Result) {
	if res.ReqLatency.N > 0 {
		lat := res.ReqLatency
		sum.ReqLatency = &lat
	}
}

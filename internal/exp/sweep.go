package exp

// sweep.go is the declarative sweep layer: a SweepSpec names the swept
// axis (CPs, IOPs, disks, record size, a fault or arrival rate, or the
// access patterns themselves), the values to sweep, and the fixed
// machine/workload shape around it, and expands into the same
// (cell × trial) config grid the hard-coded figure generators used to
// build by hand. Every paper figure (3–8) is an instance of a spec (see
// presets.go); extended presets push the same figures past the paper's
// 1994 hardware envelope. Specs serialize to/from JSON, so experiments
// can be defined in files and re-run exactly (EXPERIMENTS.md documents
// every preset and the file format).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"ddio/internal/fault"
	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/stats"
	"ddio/internal/workload"
)

// Axis names accepted by SweepSpec.Axis.
const (
	AxisCPs    = "cps"    // number of compute processors
	AxisIOPs   = "iops"   // number of I/O processors (one bus each)
	AxisDisks  = "disks"  // number of disks
	AxisRecord = "record" // record size in bytes

	// Degradation axes: fault intensity in per-mille (so the axis stays
	// integer-valued like every other), applied over the spec's Faults
	// template. Zero is a valid value — the fault-free baseline row.
	AxisFaultPM    = "faultpm"    // transient disk-error rate, ‰ per request
	AxisLossPM     = "losspm"     // interconnect message-loss rate, ‰ per traversal
	AxisStragglers = "stragglers" // number of straggling disks

	// AxisWLRate sweeps the open-arrival rate (requests/s) of the spec's
	// Workload template — every poisson phase is re-rated to the axis
	// value on a clone, so one spec charts throughput versus offered load.
	AxisWLRate = "wlrate"

	// AxisPattern makes the access patterns the rows and the methods the
	// columns: the patterns × file-systems grid of Figures 3 and 4. It
	// takes no values and no second axis, and its table has no max-bw
	// column (the machine is fixed, so every row shares one ceiling).
	AxisPattern = "pattern"
)

// axisInfo maps an axis name to its table row label, the config field it
// sweeps, and the smallest legal axis value (machine-shape axes need at
// least 1; fault axes include the fault-free 0 baseline). Fault axes
// clone the cell's plan before mutating it — the template is shared
// across every cell of the sweep.
var axisInfo = map[string]struct {
	rowLabel string
	min      int
	apply    func(*Config, int)
}{
	AxisCPs:    {"CPs", 1, func(c *Config, v int) { c.NCP = v }},
	AxisIOPs:   {"IOPs", 1, func(c *Config, v int) { c.NIOP = v }},
	AxisDisks:  {"disks", 1, func(c *Config, v int) { c.NDisks = v }},
	AxisRecord: {"record", 1, func(c *Config, v int) { c.RecordSize = v }},
	AxisFaultPM: {"err-permille", 0, func(c *Config, v int) {
		p := c.Faults.Clone()
		p.DiskErrorRate = float64(v) / 1000
		c.Faults = p
	}},
	AxisLossPM: {"loss-permille", 0, func(c *Config, v int) {
		p := c.Faults.Clone()
		p.MsgLossRate = float64(v) / 1000
		c.Faults = p
	}},
	AxisStragglers: {"stragglers", 0, func(c *Config, v int) {
		p := c.Faults.Clone()
		p.Stragglers = v
		c.Faults = p
	}},
	AxisWLRate: {"req-per-sec", 1, func(c *Config, v int) {
		w := c.Workload.Clone()
		w.SetOpenRate(float64(v))
		c.Workload = w
	}},
	AxisPattern: {"pattern", 0, func(*Config, int) {}}, // rowPatterns sets each row's pattern
}

// axisNames lists the accepted axis names for error messages.
const axisNames = "cps, iops, disks, record, faultpm, losspm, stragglers, wlrate or pattern"

// SweepSpec declaratively describes one machine/workload sweep: one
// swept axis crossed with a pattern × method grid, everything else held
// fixed. A spec expands into the experiment runner's (cell × trial)
// config grid and renders as the same row-per-value table the paper's
// Figures 5–8 use, so the canonical figures are just specs whose axes
// stop at the paper's ranges. On the pattern axis the rows are the
// patterns and the columns the methods, the grid of Figures 3 and 4.
//
// The zero values of the optional fields defer to the paper's Table 1
// machine and the caller's Options, which is what keeps the paper-range
// presets bit-identical to the original hard-coded generators.
type SweepSpec struct {
	// Name identifies the spec (preset registry key, CLI argument).
	Name string `json:"name"`
	// ID is the table ID; it defaults to Name. The paper presets set it
	// to the figure ID ("fig5") so their output matches the original
	// figure tables byte for byte.
	ID string `json:"id,omitempty"`
	// Title is the table title line.
	Title string `json:"title"`
	// Extends names the paper figure this spec reproduces or extends
	// (documentation only).
	Extends string `json:"extends,omitempty"`
	// Note, if set, is appended to the rendered table.
	Note string `json:"note,omitempty"`

	// Axis is the swept parameter: "cps", "iops", "disks", "record", a
	// fault or arrival-rate axis, or "pattern" (one row per pattern).
	Axis string `json:"axis"`
	// Values are the axis values, one table row each; the pattern axis
	// takes none.
	Values []int `json:"values,omitempty"`

	// Axis2 and Values2, when set, turn the sweep into a response
	// surface: the table gets one row per (Values × Values2) pair, first
	// axis outermost, labeled "v1×v2". Any axis pair from the same axis
	// set works (cps × disks, wlrate × faultpm, ...) as long as the two
	// axes differ; template-coherence rules (faultpm needs a retry
	// budget, wlrate needs an open-arrival phase, ...) apply to either
	// position. plot.SweepFigure renders two-axis results as heatmaps.
	Axis2   string `json:"axis2,omitempty"`
	Values2 []int  `json:"values2,omitempty"`

	// Layout is the disk layout ("contiguous" or "random-blocks").
	Layout string `json:"layout"`
	// Methods are the file systems under test, in column-group order
	// (names as ParseMethod accepts: "tc", "ddio", "ddio-sort", "2phase").
	Methods []string `json:"methods"`
	// Patterns are the access patterns, in column order within each
	// method group (paper shorthand: "ra", "rb", "rc", ...), or in row
	// order on the pattern axis.
	Patterns []string `json:"patterns"`
	// Record is the fixed record size in bytes; 0 means the paper's
	// 8 KB. Ignored when Axis is "record".
	Record int `json:"record,omitempty"`

	// CPs, IOPs, Disks fix the non-swept machine shape; 0 defers to the
	// Table 1 defaults (16 each).
	CPs   int `json:"cps,omitempty"`   // fixed compute processors
	IOPs  int `json:"iops,omitempty"`  // fixed I/O processors (one bus each)
	Disks int `json:"disks,omitempty"` // fixed disks

	// Trials and FileMB, when positive, override the caller's Options —
	// used by smoke presets that must stay cheap no matter the flags.
	Trials int   `json:"trials,omitempty"` // trials per data point
	FileMB int64 `json:"filemb,omitempty"` // file size in MiB

	// Faults is the fault-plan template for degradation sweeps: every
	// cell starts from it (the fault axes then overlay the swept
	// intensity on a clone). nil keeps the sweep fault-free and its
	// output byte-identical to before fault injection existed.
	Faults *fault.Plan `json:"faults,omitempty"`

	// Workload is the workload template: every cell runs its request
	// streams instead of the classic whole-file transfer (the wlrate axis
	// then overlays the swept arrival rate on a clone). nil keeps the
	// sweep on whole-file collective transfers and its output
	// byte-identical to before the workload layer existed.
	Workload *workload.Spec `json:"workload,omitempty"`
}

// SpecError is the typed validation error for a SweepSpec's two-axis
// (response-surface) fields, so parsers of untrusted specs — the daemon,
// the fuzz targets — can distinguish a malformed axis pair from the
// generic validation failures.
type SpecError struct {
	Spec  string // spec name (may be empty if the spec had none)
	Field string // offending field: "axis2" or "values2"
	Msg   string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("exp: sweep %q: %s: %s", e.Spec, e.Field, e.Msg)
}

// Validate checks internal consistency of the spec.
func (s *SweepSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("exp: sweep spec needs a name")
	case s.Axis == AxisPattern && (len(s.Values) > 0 || s.Axis2 != "" || len(s.Values2) > 0):
		return fmt.Errorf("exp: sweep %q: the pattern axis takes no values, axis2 or values2", s.Name)
	case len(s.Values) == 0 && s.Axis != AxisPattern:
		return fmt.Errorf("exp: sweep %q has no axis values", s.Name)
	case len(s.Methods) == 0:
		return fmt.Errorf("exp: sweep %q has no methods", s.Name)
	case len(s.Patterns) == 0:
		return fmt.Errorf("exp: sweep %q has no patterns", s.Name)
	case s.CPs < 0 || s.IOPs < 0 || s.Disks < 0 || s.Record < 0 || s.Trials < 0 || s.FileMB < 0:
		return fmt.Errorf("exp: sweep %q has negative shape parameters", s.Name)
	}
	axis, ok := axisInfo[s.Axis]
	if !ok {
		return fmt.Errorf("exp: sweep %q: unknown axis %q (want %s)", s.Name, s.Axis, axisNames)
	}
	for _, v := range s.Values {
		if v < axis.min {
			return fmt.Errorf("exp: sweep %q: axis value %d out of range", s.Name, v)
		}
	}
	if s.Axis2 == "" && len(s.Values2) > 0 {
		return &SpecError{Spec: s.Name, Field: "values2", Msg: "set without axis2"}
	}
	if s.Axis2 != "" {
		axis2, ok := axisInfo[s.Axis2]
		if !ok || s.Axis2 == AxisPattern {
			return &SpecError{Spec: s.Name, Field: "axis2",
				Msg: fmt.Sprintf("unknown axis %q (want %s, except pattern)", s.Axis2, axisNames)}
		}
		if s.Axis2 == s.Axis {
			return &SpecError{Spec: s.Name, Field: "axis2",
				Msg: fmt.Sprintf("duplicates axis %q; a surface needs two distinct axes", s.Axis)}
		}
		if len(s.Values2) == 0 {
			return &SpecError{Spec: s.Name, Field: "values2", Msg: "axis2 set but values2 empty"}
		}
		for _, v := range s.Values2 {
			if v < axis2.min {
				return &SpecError{Spec: s.Name, Field: "values2",
					Msg: fmt.Sprintf("axis value %d out of range", v)}
			}
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(0); err != nil {
			return fmt.Errorf("exp: sweep %q: %w", s.Name, err)
		}
	}
	// Degradation axes need a coherent template: injecting disk errors
	// without a retry budget would be guaranteed data loss, and a
	// straggler sweep without a slowdown factor would sweep nothing.
	// Either axis position counts — surfaces may put a fault axis second.
	if maxValue(s.axisValues(AxisFaultPM)) > 0 && s.Faults.Retry().Limit < 1 {
		return fmt.Errorf("exp: sweep %q: faultpm axis needs a faults template with retry_limit >= 1", s.Name)
	}
	if maxValue(s.axisValues(AxisStragglers)) > 0 && (s.Faults == nil || s.Faults.StragglerSlowdown <= 1) {
		return fmt.Errorf("exp: sweep %q: stragglers axis needs a faults template with straggler_slowdown > 1", s.Name)
	}
	if s.Workload != nil {
		if err := s.Workload.Validate(nil); err != nil {
			return fmt.Errorf("exp: sweep %q: %w", s.Name, err)
		}
		// A workload replaces the pattern in every cell, so columns or
		// rows that vary the pattern would only repeat one number.
		if s.Axis == AxisPattern || len(s.Patterns) > 1 {
			return &SpecError{Spec: s.Name, Field: "workload",
				Msg: "a workload replaces the pattern; the spec must not vary it (one pattern, not the pattern axis)"}
		}
	}
	// The wlrate axis re-rates open-arrival phases; without one there is
	// nothing to sweep.
	if (s.Axis == AxisWLRate || s.Axis2 == AxisWLRate) && s.Workload.OpenPhases() == 0 {
		return fmt.Errorf("exp: sweep %q: wlrate axis needs a workload template with a poisson-arrival phase", s.Name)
	}
	if _, err := pfs.ParseLayout(s.Layout); err != nil {
		return fmt.Errorf("exp: sweep %q: %w", s.Name, err)
	}
	for _, m := range s.Methods {
		if _, err := ParseMethod(m); err != nil {
			return fmt.Errorf("exp: sweep %q: %w", s.Name, err)
		}
	}
	for _, p := range s.Patterns {
		if _, err := hpf.ParsePattern(p); err != nil {
			return fmt.Errorf("exp: sweep %q: %w", s.Name, err)
		}
	}
	return nil
}

// axisValues returns the value list for whichever axis position name
// occupies, or nil when the spec does not sweep that axis — so
// coherence checks apply regardless of whether an axis is first or
// second in a surface.
func (s *SweepSpec) axisValues(name string) []int {
	switch name {
	case s.Axis:
		return s.Values
	case s.Axis2:
		return s.Values2
	}
	return nil
}

// maxValue returns the largest axis value (0 for an empty list;
// Validate rejects those anyway).
func maxValue(vs []int) int {
	m := 0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// TableID returns the ID the spec's table will carry (ID, defaulting to
// Name).
func (s *SweepSpec) TableID() string {
	if s.ID != "" {
		return s.ID
	}
	return s.Name
}

// Resolve returns the validated spec a sweep under o runs. It folds
// o.Faults and o.Workload in as the fault-plan and workload templates
// where the spec has none of its own, on a copy, so the spec's templates
// are the only way a plan or a workload reaches the cells, and the
// result records them (faults, cell_time, the time figure) as it would
// the spec's own. Validate then rejects a workload on a spec that
// varies the pattern.
func (s *SweepSpec) Resolve(o Options) (*SweepSpec, error) {
	if (o.Faults != nil && s.Faults == nil) || (o.Workload != nil && s.Workload == nil) {
		c := *s
		if c.Faults == nil {
			c.Faults = o.Faults
		}
		if c.Workload == nil {
			c.Workload = o.Workload
		}
		s = &c
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// options applies the spec's own Trials/FileMB overrides to the caller's
// options.
func (s *SweepSpec) options(o Options) Options {
	if s.Trials > 0 {
		o.Trials = s.Trials
	}
	if s.FileMB > 0 {
		o.FileBytes = s.FileMB * MiB
	}
	return o
}

// methods parses the method list (Validate has already vetted it).
func (s *SweepSpec) methods() []Method {
	ms := make([]Method, len(s.Methods))
	for i, name := range s.Methods {
		ms[i], _ = ParseMethod(name)
	}
	return ms
}

// axisPoint is one table row of the expansion: its label and the value
// for each axis position (v2 is unused for single-axis sweeps).
type axisPoint struct {
	label string
	v, v2 int
}

// rowPoints returns one point per table row: the patterns of a
// pattern-axis sweep, the axis values of a single-axis sweep, or the
// Values × Values2 cross-product (first axis outermost) of a two-axis
// surface, row-labeled "v1×v2".
func (s *SweepSpec) rowPoints() []axisPoint {
	if s.Axis == AxisPattern {
		pts := make([]axisPoint, len(s.Patterns))
		for i, p := range s.Patterns {
			pts[i] = axisPoint{label: p}
		}
		return pts
	}
	if s.Axis2 == "" {
		pts := make([]axisPoint, len(s.Values))
		for i, v := range s.Values {
			pts[i] = axisPoint{label: fmt.Sprintf("%d", v), v: v}
		}
		return pts
	}
	pts := make([]axisPoint, 0, len(s.Values)*len(s.Values2))
	for _, v := range s.Values {
		for _, v2 := range s.Values2 {
			pts = append(pts, axisPoint{label: fmt.Sprintf("%d×%d", v, v2), v: v, v2: v2})
		}
	}
	return pts
}

// rowPatterns returns the patterns measured in table row i, in column
// order within each method group: every pattern on a value axis, the
// row's own pattern on the pattern axis.
func (s *SweepSpec) rowPatterns(i int) []string {
	if s.Axis == AxisPattern {
		return s.Patterns[i : i+1]
	}
	return s.Patterns
}

// cellsPerRow is the number of measured cells in each table row.
func (s *SweepSpec) cellsPerRow() int { return len(s.Methods) * len(s.rowPatterns(0)) }

// cellAt returns the method index and the pattern of measured cell
// (row, col): columns run method-major, patterns within each method.
func (s *SweepSpec) cellAt(row, col int) (int, string) {
	pats := s.rowPatterns(row)
	return col / len(pats), pats[col%len(pats)]
}

// rowConfig returns the configuration every cell of row pt shares before
// its method and pattern are set: the options' base, the spec's layout,
// record size, machine shape and templates, then the row's axis values.
func (s *SweepSpec) rowConfig(o Options, pt axisPoint) Config {
	cfg := o.base()
	cfg.Layout, _ = pfs.ParseLayout(s.Layout)
	if s.Record > 0 { // else the paper's 8 KB
		cfg.RecordSize = s.Record
	}
	if s.CPs > 0 {
		cfg.NCP = s.CPs
	}
	if s.IOPs > 0 {
		cfg.NIOP = s.IOPs
	}
	if s.Disks > 0 {
		cfg.NDisks = s.Disks
	}
	if s.Faults != nil {
		cfg.Faults = s.Faults
	}
	if s.Workload != nil {
		cfg.Workload = s.Workload
	}
	axisInfo[s.Axis].apply(&cfg, pt.v)
	if s.Axis2 != "" {
		axisInfo[s.Axis2].apply(&cfg, pt.v2)
	}
	return cfg
}

// rowLabel returns the table's row-label header: the axis label, or
// "label1×label2" for a surface.
func (s *SweepSpec) rowLabel() string {
	if s.Axis2 == "" {
		return axisInfo[s.Axis].rowLabel
	}
	return axisInfo[s.Axis].rowLabel + "×" + axisInfo[s.Axis2].rowLabel
}

// Expand resolves the spec against the options (see Resolve) and
// expands it into the table skeleton (rows, columns, hardware-ceiling
// cells) and the flat (cell × trial) config grid, in the exact order the
// original figure generators produced: rows outermost, then methods,
// patterns, trials. Expansion is pure — no simulation runs — so tests
// can pin the grid a spec denotes without paying for the runs.
func (s *SweepSpec) Expand(o Options) (*Table, []Config, error) {
	s, err := s.Resolve(o)
	if err != nil {
		return nil, nil, err
	}
	o = s.options(o)
	methods := s.methods()
	points := s.rowPoints()
	t := &Table{ID: s.TableID(), Title: s.Title, RowLabel: s.rowLabel(), Note: s.Note}
	for _, m := range methods {
		if s.Axis == AxisPattern {
			t.Cols = append(t.Cols, m.String())
			continue
		}
		for _, p := range s.Patterns {
			t.Cols = append(t.Cols, fmt.Sprintf("%s %s", m, p))
		}
	}
	cellsPerRow := s.cellsPerRow()
	if s.Axis != AxisPattern {
		t.Cols = append(t.Cols, "max-bw")
	}
	trials := o.trials()
	cfgs := make([]Config, 0, len(points)*cellsPerRow*trials)
	t.Cells = make([][]Cell, len(points))
	for pi, pt := range points {
		t.Rows = append(t.Rows, pt.label)
		t.Cells[pi] = make([]Cell, len(t.Cols))
		var ceiling float64
		for _, m := range methods {
			for _, p := range s.rowPatterns(pi) {
				cfg := s.rowConfig(o, pt)
				cfg.Pattern = p
				cfg.Method = m
				ceiling = cfg.MaxBandwidthMBps()
				for k := 0; k < trials; k++ {
					c := cfg
					c.Seed = trialSeed(cfg.Seed, k)
					cfgs = append(cfgs, c)
				}
			}
		}
		if s.Axis != AxisPattern {
			t.Cells[pi][cellsPerRow] = Cell{Mean: ceiling}
		}
	}
	return t, cfgs, nil
}

// SweepResult is the machine-readable outcome of one executed sweep: the
// spec that produced it, the rendered table, and per measured cell the
// full descriptive statistics over its trials (the table keeps only
// mean and CV). CellStats is indexed [row][method×pattern column]
// ([pattern][method] on the pattern axis) and excludes the table's
// trailing max-bw column, which is a hardware ceiling, not a
// measurement.
type SweepResult struct {
	Spec      *SweepSpec        `json:"spec"`       // the spec that ran
	Table     *Table            `json:"table"`      // rendered figure table
	CellStats [][]stats.Summary `json:"cell_stats"` // per-cell trial statistics
	// CellTime is the per-cell completion-time statistics (seconds over
	// trials), same indexing as CellStats. Populated only for
	// degradation sweeps (a Faults template is present): under faults,
	// recovery stretches completion time even when throughput curves
	// flatten, so both views matter. Absent for fault-free sweeps,
	// keeping their JSON byte-identical to before fault injection.
	CellTime [][]stats.Summary `json:"cell_time,omitempty"`
}

// JSON renders the sweep result as indented JSON.
func (r *SweepResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunFull executes the sweep on the options' worker pool and returns the
// table plus per-cell trial statistics. For the paper-range presets the
// table is bit-identical to the original hard-coded figure generators
// (pinned by the golden expansion test): the config grid, seed
// derivation, and aggregation order are exactly theirs.
func (s *SweepSpec) RunFull(o Options) (*SweepResult, error) {
	s, err := s.Resolve(o)
	if err != nil {
		return nil, err
	}
	t, cfgs, err := s.Expand(o)
	if err != nil {
		return nil, err
	}
	o = s.options(o)
	methods := s.methods()
	cellsPerRow := s.cellsPerRow()
	trials := o.trials()
	nRows := len(t.Rows)
	cellStats := make([][]stats.Summary, nRows)
	var cellTime [][]stats.Summary
	if s.Faults != nil {
		cellTime = make([][]stats.Summary, nRows)
	}
	// Workload sweeps are latency studies as much as bandwidth studies:
	// every cell carries request-latency percentiles (seconds over all
	// trial requests). Absent for classic whole-file sweeps, keeping
	// their table JSON byte-identical (omitempty).
	var cellLat [][]stats.Summary
	if s.Workload != nil {
		cellLat = make([][]stats.Summary, nRows)
	}
	for i := 0; i < nRows; i++ {
		cellStats[i] = make([]stats.Summary, cellsPerRow)
		if cellTime != nil {
			cellTime[i] = make([]stats.Summary, cellsPerRow)
		}
		if cellLat != nil {
			cellLat[i] = make([]stats.Summary, cellsPerRow)
		}
	}
	r := o.runner()
	aggs := newCellAggs(nRows*cellsPerRow, trials)
	_, err = r.RunAll(cfgs, func(idx int, res *Result) {
		cell, trial := idx/trials, idx%trials
		if aggs[cell].done(trial, res) {
			vi, ci := cell/cellsPerRow, cell%cellsPerRow
			t.Cells[vi][ci] = aggs[cell].cell()
			cellStats[vi][ci] = stats.Summarize(aggs[cell].mbps)
			if cellTime != nil {
				cellTime[vi][ci] = stats.Summarize(aggs[cell].secs)
			}
			if cellLat != nil {
				cellLat[vi][ci] = stats.Combine(aggs[cell].lat)
			}
			mi, p := s.cellAt(vi, ci)
			r.progressLocked("%s %s=%s %-4s %-9v %7.2f MB/s (cv %.3f)", t.ID, t.RowLabel,
				t.Rows[vi], p, methods[mi], t.Cells[vi][ci].Mean, t.Cells[vi][ci].CV)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", t.ID, err)
	}
	t.Latency = cellLat
	return &SweepResult{Spec: s, Table: t, CellStats: cellStats, CellTime: cellTime}, nil
}

// ResolveSweep turns a sweep argument — as cmd/figures -sweep accepts —
// into a validated spec: a built-in preset name, or a path to a JSON
// spec file.
func ResolveSweep(nameOrPath string) (*SweepSpec, error) {
	if spec, ok := LookupPreset(nameOrPath); ok {
		return spec, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		return nil, fmt.Errorf("exp: %q is neither a built-in sweep preset nor a readable spec file: %w", nameOrPath, err)
	}
	return ParseSweepSpec(data)
}

// ParseSweepSpec parses a JSON sweep-spec file (see EXPERIMENTS.md for
// the format) and validates it. Unknown fields are rejected so typos in
// hand-written spec files fail loudly instead of silently deferring to
// defaults.
func ParseSweepSpec(data []byte) (*SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("exp: parsing sweep spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

package exp

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
)

// legacyExpand is a verbatim transcription of the hard-coded sweepTable
// expansion that produced Figures 5–8 before the declarative sweep layer
// existed. The golden test below requires every paper-range preset to
// expand to the exact same table skeleton and (cell × trial) config
// grid, which — simulations being pure functions of their configs — is
// what makes the preset output bit-identical to the historical figures.
func legacyExpand(o Options, id, title, rowLabel string, values []int,
	layout pfs.LayoutKind, ddioMethod Method, mutate func(*Config, int)) (*Table, []Config) {
	patterns := []string{"ra", "rn", "rb", "rc"}
	methods := []Method{ddioMethod, TraditionalCaching}
	t := &Table{ID: id, Title: title, RowLabel: rowLabel}
	for _, m := range methods {
		for _, p := range patterns {
			t.Cols = append(t.Cols, fmt.Sprintf("%s %s", m, p))
		}
	}
	t.Cols = append(t.Cols, "max-bw")
	cellsPerRow := len(methods) * len(patterns)
	trials := o.trials()
	cfgs := make([]Config, 0, len(values)*cellsPerRow*trials)
	t.Cells = make([][]Cell, len(values))
	for vi, v := range values {
		t.Rows = append(t.Rows, fmt.Sprintf("%d", v))
		t.Cells[vi] = make([]Cell, cellsPerRow+1)
		var ceiling float64
		for _, m := range methods {
			for _, p := range patterns {
				cfg := o.base()
				cfg.Layout = layout
				cfg.RecordSize = 8192
				cfg.Pattern = p
				cfg.Method = m
				mutate(&cfg, v)
				ceiling = cfg.MaxBandwidthMBps()
				for k := 0; k < trials; k++ {
					c := cfg
					c.Seed = trialSeed(cfg.Seed, k)
					cfgs = append(cfgs, c)
				}
			}
		}
		t.Cells[vi][cellsPerRow] = Cell{Mean: ceiling}
	}
	return t, cfgs
}

// legacyPatternExpand is a verbatim transcription of the expansion half
// of patternTable, the hard-coded builder of Figures 3 and 4 before the
// pattern axis existed, with the note Figure3 and Figure4 attached to
// its tables: patterns outermost, then methods, then trials.
func legacyPatternExpand(o Options, id, title, note string, layout pfs.LayoutKind, recordSize int,
	patterns []string, methods []Method) (*Table, []Config) {
	t := &Table{ID: id, Title: title, RowLabel: "pattern", Rows: patterns, Note: note}
	for _, m := range methods {
		t.Cols = append(t.Cols, m.String())
	}
	t.Cells = make([][]Cell, len(patterns))
	for i := range t.Cells {
		t.Cells[i] = make([]Cell, len(methods))
	}
	trials := o.trials()
	cfgs := make([]Config, 0, len(patterns)*len(methods)*trials)
	for _, pat := range patterns {
		for _, method := range methods {
			cfg := o.base()
			cfg.Layout = layout
			cfg.RecordSize = recordSize
			cfg.Pattern = pat
			cfg.Method = method
			for k := 0; k < trials; k++ {
				c := cfg
				c.Seed = trialSeed(cfg.Seed, k)
				cfgs = append(cfgs, c)
			}
		}
	}
	return t, cfgs
}

// TestPaperPresetsMatchLegacyExpansion is the golden contract of the
// sweep layer: the eight paper presets expand — skeleton and config
// grid — exactly as the retired hard-coded Figure 3–8 generators did, at
// both the paper's default options and scaled-down ones. No simulation
// runs; identical configs imply bit-identical tables.
func TestPaperPresetsMatchLegacyExpansion(t *testing.T) {
	fig3Methods := []Method{TraditionalCaching, DiskDirected, DiskDirectedSort}
	fig4Methods := []Method{TraditionalCaching, DiskDirected}
	fig3Note := "ra throughput is normalized by the number of CPs, as in the paper"
	fig4Note := func(o Options) string {
		base := o.base()
		return fmt.Sprintf("peak aggregate disk throughput is %.1f MB/s", base.MaxBandwidthMBps())
	}
	legacy := map[string]func(o Options) (*Table, []Config){
		"fig3a-paper": func(o Options) (*Table, []Config) {
			return legacyPatternExpand(o, "fig3a", "throughput (MB/s), random-blocks layout, 8-byte records",
				fig3Note, pfs.RandomBlocks, 8, hpf.AllPatterns(), fig3Methods)
		},
		"fig3b-paper": func(o Options) (*Table, []Config) {
			return legacyPatternExpand(o, "fig3b", "throughput (MB/s), random-blocks layout, 8192-byte records",
				fig3Note, pfs.RandomBlocks, 8192, hpf.AllPatterns(), fig3Methods)
		},
		"fig4a-paper": func(o Options) (*Table, []Config) {
			return legacyPatternExpand(o, "fig4a", "throughput (MB/s), contiguous layout, 8-byte records",
				fig4Note(o), pfs.Contiguous, 8, hpf.AllPatterns(), fig4Methods)
		},
		"fig4b-paper": func(o Options) (*Table, []Config) {
			return legacyPatternExpand(o, "fig4b", "throughput (MB/s), contiguous layout, 8192-byte records",
				fig4Note(o), pfs.Contiguous, 8192, hpf.AllPatterns(), fig4Methods)
		},
		"fig5-paper": func(o Options) (*Table, []Config) {
			return legacyExpand(o, "fig5", "throughput vs number of CPs (contiguous, 8 KB records)",
				"CPs", []int{1, 2, 4, 8, 16}, pfs.Contiguous, DiskDirected,
				func(c *Config, v int) { c.NCP = v })
		},
		"fig6-paper": func(o Options) (*Table, []Config) {
			return legacyExpand(o, "fig6", "throughput vs number of IOPs/busses (16 disks, contiguous, 8 KB records)",
				"IOPs", []int{1, 2, 4, 8, 16}, pfs.Contiguous, DiskDirected,
				func(c *Config, v int) { c.NIOP = v })
		},
		"fig7-paper": func(o Options) (*Table, []Config) {
			return legacyExpand(o, "fig7", "throughput vs number of disks (1 IOP/bus, contiguous, 8 KB records)",
				"disks", []int{1, 2, 4, 8, 16, 32}, pfs.Contiguous, DiskDirected,
				func(c *Config, v int) { c.NIOP = 1; c.NDisks = v })
		},
		"fig8-paper": func(o Options) (*Table, []Config) {
			return legacyExpand(o, "fig8", "throughput vs number of disks (1 IOP/bus, random-blocks, 8 KB records)",
				"disks", []int{1, 2, 4, 8, 16, 32}, pfs.RandomBlocks, DiskDirectedSort,
				func(c *Config, v int) { c.NIOP = 1; c.NDisks = v })
		},
	}
	for _, s := range Presets() {
		if _, ok := legacy[s.Name]; strings.HasSuffix(s.Name, "-paper") && !ok {
			t.Errorf("paper preset %q has no legacy transcription", s.Name)
		}
	}
	for _, o := range []Options{DefaultOptions(), tinyOptions()} {
		for name, gen := range legacy {
			wantT, wantCfgs := gen(o)
			spec, ok := LookupPreset(name)
			if !ok {
				t.Fatalf("preset %q missing", name)
			}
			gotT, gotCfgs, err := spec.Expand(o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(gotT, wantT) {
				t.Errorf("%s: table skeleton diverges from legacy:\ngot  %+v\nwant %+v", name, gotT, wantT)
			}
			if len(gotCfgs) != len(wantCfgs) {
				t.Fatalf("%s: %d configs, legacy had %d", name, len(gotCfgs), len(wantCfgs))
			}
			for i := range gotCfgs {
				g, w := gotCfgs[i], wantCfgs[i]
				// Spec.Seek is a func, which DeepEqual can't compare;
				// both sides take the same fresh HP97560, so compare the
				// model by name and the rest of the config structurally.
				if g.Disk == nil || w.Disk == nil || g.Disk.Name != w.Disk.Name {
					t.Fatalf("%s: config %d disk %v vs %v", name, i, g.Disk, w.Disk)
				}
				g.Disk, w.Disk = nil, nil
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: config %d diverges from legacy:\ngot  %+v\nwant %+v", name, i, g, w)
				}
			}
		}
	}
}

// TestFig4NoteMatchesCeiling pins Figure 4's fixed note to the hardware
// ceiling of the cells its presets expand to, so neither can drift from
// the other silently.
func TestFig4NoteMatchesCeiling(t *testing.T) {
	for _, name := range []string{"fig4a-paper", "fig4b-paper"} {
		spec, _ := LookupPreset(name)
		tab, cfgs, err := spec.Expand(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cfgs {
			if want := fmt.Sprintf("peak aggregate disk throughput is %.1f MB/s", c.MaxBandwidthMBps()); tab.Note != want {
				t.Fatalf("%s: note %q, want %q", name, tab.Note, want)
			}
		}
	}
}

// TestLookupPresetAllocs: a lookup copies only the named spec, not the
// whole registry — the daemon resolves a preset on every sweep request,
// cache hits included.
func TestLookupPresetAllocs(t *testing.T) {
	for _, s := range presets {
		if n := testing.AllocsPerRun(20, func() { LookupPreset(s.Name) }); n > 8 {
			t.Errorf("LookupPreset(%q): %.0f allocs, want <= 8", s.Name, n)
		}
	}
}

// TestPresetCopiesIsolated: mutating a returned preset — its slices, its
// fault plan, its workload — leaves the next lookup untouched.
func TestPresetCopiesIsolated(t *testing.T) {
	snapshot := func(name string) string {
		s, ok := LookupPreset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	mutate := func(s *SweepSpec) {
		for i := range s.Values {
			s.Values[i]++
		}
		for i := range s.Values2 {
			s.Values2[i]++
		}
		s.Methods[0] = "mutated"
		s.Patterns[0] = "mutated"
		if s.Faults != nil {
			s.Faults.RetryLimit++
		}
		if s.Workload != nil {
			s.Workload.Phases[0].Requests++
			*s.Workload.Phases[0].ReadFraction = 0
		}
	}
	for _, name := range []string{"fig3a-paper", "degrade-smoke", "wl-smoke", "surface-smoke"} {
		want := snapshot(name)
		s, _ := LookupPreset(name)
		mutate(s)
		for _, all := range Presets() {
			mutate(all)
		}
		if got := snapshot(name); got != want {
			t.Errorf("%s: mutating a copy changed the registry:\ngot  %s\nwant %s", name, got, want)
		}
	}
}

// TestPresetsValid checks every built-in preset validates and expands.
func TestPresetsValid(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Presets() {
		if seen[s.Name] {
			t.Errorf("duplicate preset name %q", s.Name)
		}
		seen[s.Name] = true
		if _, _, err := s.Expand(DefaultOptions()); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, name := range []string{"fig3a-paper", "fig3b-paper", "fig4a-paper", "fig4b-paper",
		"fig5-paper", "fig6-paper", "fig7-paper", "fig8-paper", "ext-smoke"} {
		if !seen[name] {
			t.Errorf("required preset %q missing", name)
		}
	}
}

// TestSweepExtendedBeyondPaper runs the CI smoke preset end to end: axes
// beyond the paper's 16 CPs, one trial of a small file, with the result
// round-tripping through the sweep-result JSON emitter.
func TestSweepExtendedBeyondPaper(t *testing.T) {
	spec, ok := LookupPreset("ext-smoke")
	if !ok {
		t.Fatal("ext-smoke preset missing")
	}
	res, err := spec.RunFull(DefaultOptions()) // preset overrides trials/file size itself
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Table.Rows {
		for j := range res.Table.Cols[:len(res.Table.Cols)-1] {
			if res.Table.Cells[i][j].Mean <= 0 {
				t.Errorf("cell (%s, %s) empty", row, res.Table.Cols[j])
			}
			if st := res.CellStats[i][j]; st.N != 1 || st.Mean != res.Table.Cells[i][j].Mean {
				t.Errorf("cell (%s, %s): stats %+v disagree with table mean %v",
					row, res.Table.Cols[j], st, res.Table.Cells[i][j].Mean)
			}
		}
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back *SweepResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("sweep result JSON round trip diverged:\ngot  %+v\nwant %+v", back, res)
	}
}

// TestParseSweepSpec checks the JSON file format: a valid file parses to
// the expected spec, unknown fields and invalid axes are rejected.
func TestParseSweepSpec(t *testing.T) {
	good := `{
  "name": "my-sweep", "title": "custom", "axis": "disks",
  "values": [2, 6], "iops": 1,
  "layout": "random-blocks", "methods": ["ddio-sort", "tc"],
  "patterns": ["rb", "rc"], "record": 4096, "trials": 2
}`
	s, err := ParseSweepSpec([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "my-sweep" || s.Axis != AxisDisks || s.IOPs != 1 || s.Record != 4096 {
		t.Fatalf("parsed spec %+v", s)
	}
	if _, _, err := s.Expand(tinyOptions()); err != nil {
		t.Fatal(err)
	}
	grid, err := ParseSweepSpec([]byte(`{"name":"grid","title":"t","axis":"pattern",
		"layout":"contiguous","methods":["tc","ddio"],"patterns":["ra","wc"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if tab, cfgs, err := grid.Expand(tinyOptions()); err != nil || len(tab.Rows) != 2 || len(cfgs) != 4 {
		t.Fatalf("pattern-axis spec: %v, %d configs", err, len(cfgs))
	}
	for name, bad := range map[string]string{
		"pattern axis with values": `{"name":"x","axis":"pattern","values":[1],"layout":"contiguous",
			"methods":["tc"],"patterns":["ra"]}`,
		"pattern axis with axis2": `{"name":"x","axis":"pattern","axis2":"cps","values2":[1],"layout":"contiguous",
			"methods":["tc"],"patterns":["ra"]}`,
		"pattern axis with values2": `{"name":"x","axis":"pattern","values2":[1],"layout":"contiguous",
			"methods":["tc"],"patterns":["ra"]}`,
		"pattern as axis2": `{"name":"x","axis":"cps","values":[1],"axis2":"pattern","values2":[1],
			"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
		"unknown field": `{"name":"x","axis":"cps","values":[1],"layout":"contiguous",
			"methods":["tc"],"patterns":["ra"],"bogus":1}`,
		"bad axis":    `{"name":"x","axis":"warp","values":[1],"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
		"bad layout":  `{"name":"x","axis":"cps","values":[1],"layout":"striped","methods":["tc"],"patterns":["ra"]}`,
		"bad method":  `{"name":"x","axis":"cps","values":[1],"layout":"contiguous","methods":["nfs"],"patterns":["ra"]}`,
		"bad pattern": `{"name":"x","axis":"cps","values":[1],"layout":"contiguous","methods":["tc"],"patterns":["zz"]}`,
		"no values":   `{"name":"x","axis":"cps","values":[],"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
		"zero value":  `{"name":"x","axis":"cps","values":[0],"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
		"no name":     `{"axis":"cps","values":[1],"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
		"not json":    `axis: cps`,
		"no patterns": `{"name":"x","axis":"cps","values":[1],"layout":"contiguous","methods":["tc"],"patterns":[]}`,
	} {
		if _, err := ParseSweepSpec([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSweepSpecOverrides pins the Trials/FileMB spec overrides and the
// record default used by smoke presets.
func TestSweepSpecOverrides(t *testing.T) {
	spec := tinySweepSpec()
	spec.Trials = 3
	spec.FileMB = 2
	_, cfgs, err := spec.Expand(Options{Trials: 9, FileBytes: 16 * MiB, Seed: 5, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	perCell := 3
	if want := len(spec.Values) * len(spec.Methods) * len(spec.Patterns) * perCell; len(cfgs) != want {
		t.Fatalf("%d configs, want %d (trials override)", len(cfgs), want)
	}
	for _, c := range cfgs {
		if c.FileBytes != 2*MiB {
			t.Fatalf("file size %d, want %d (filemb override)", c.FileBytes, 2*MiB)
		}
		if c.RecordSize != 8192 {
			t.Fatalf("record size %d, want paper default 8192", c.RecordSize)
		}
	}
}

// TestSweepProgressLines checks the executed sweep reports one progress
// line per measured cell, in the historical format.
func TestSweepProgressLines(t *testing.T) {
	var lines []string
	o := tinyOptions()
	o.Progress = func(s string) { lines = append(lines, s) }
	spec := tinySweepSpec()
	if _, err := spec.RunFull(o); err != nil {
		t.Fatal(err)
	}
	want := len(spec.Values) * len(spec.Methods) * len(spec.Patterns)
	if len(lines) != want {
		t.Fatalf("%d progress lines, want %d: %q", len(lines), want, lines)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "figS CPs=") || !strings.Contains(l, "MB/s") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
}

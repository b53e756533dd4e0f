// Command figures regenerates the paper's evaluation: Table 1 and
// Figures 3–8. Output is aligned text (one table per sweep); -csv, -json
// and -plot add machine-readable files and SVG figures.
//
// The paper used five trials of a 10 MB file; -trials and -filemb trade
// fidelity for time (shapes are stable well below the defaults). Every
// (cell × trial) simulation is independent, so -j fans them out over a
// worker pool; tables are bit-identical for any -j, only the progress
// line order changes.
//
// Every figure is a sweep preset: -fig N runs the figure's *-paper
// presets, and -sweep runs presets directly: a built-in preset by name
// (-sweeps lists them; the *-ext presets push the machine-shape axes
// past the paper's 16 CPs/IOPs/disks) or a JSON spec file by path.
// EXPERIMENTS.md documents every preset and the file format. Both paths
// write each sweep's artifacts through one table (plot.Artifacts), the
// same one the ddiosimd daemon serves from:
//
//	stdout           the text table and its max-cv line
//	-csv             <table-id>.csv (wide) and <spec>-long.csv (tidy)
//	-json            <spec>.json: spec, table and per-cell trial statistics
//	-plot            <spec>.svg, plus <spec>-time.svg for degradation and
//	                 workload sweeps
//
// -trace runs one traced Figure-3a-style transfer per file system
// (random-blocks, 8-byte records, the rc pattern) and writes its
// per-disk utilization timeline SVG plus the raw JSONL trace
// — the time-resolved view behind the paper's "disk-directed I/O keeps
// the disks busy" claim. See EXPERIMENTS.md "Traces and figures".
//
// Example:
//
//	figures -fig 3 -trials 5
//	figures -all -trials 3 -filemb 10 -out results/
//	figures -all -j 16
//	figures -fig 5 -plot                 # == -sweep fig5-paper -plot: fig5-paper.svg
//	figures -sweep fig7-ext -json -j 16  # extended axes, fig7-ext.json
//	figures -sweep my-sweep.json
//	figures -trace -trials 1 -filemb 1   # timeline-{tc,ddio,2phase}.svg
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"ddio/internal/exp"
	"ddio/internal/fault"
	"ddio/internal/pfs"
	"ddio/internal/plot"
	"ddio/internal/workload"
)

func main() {
	fig := flag.String("fig", "", "which figure to regenerate: 3,4,5,6,7,8 or table1 (empty with -all for everything)")
	all := flag.Bool("all", false, "regenerate every table and figure")
	sweep := flag.String("sweep", "", "run sweep specs instead: comma-separated preset names or JSON spec files")
	listSweeps := flag.Bool("sweeps", false, "list the built-in sweep presets and exit")
	trials := flag.Int("trials", 5, "independent trials per data point")
	fileMB := flag.Int64("filemb", 10, "file size in MiB")
	seed := flag.Int64("seed", 42, "base random seed")
	verify := flag.Bool("verify", true, "verify data end to end in every run")
	workers := flag.Int("j", 0, "concurrent experiment runs (0 = GOMAXPROCS); tables are identical for any -j")
	quiet := flag.Bool("q", false, "suppress per-cell progress on stderr")
	csv := flag.Bool("csv", false, "also write each sweep's table CSV and long-format <spec>-long.csv")
	jsonOut := flag.Bool("json", false, "also write each sweep's <spec>.json (table plus per-cell trial statistics)")
	plotOut := flag.Bool("plot", false, "also render each sweep's <spec>.svg figure (and <spec>-time.svg where it has one)")
	traceRuns := flag.Bool("trace", false, "run one traced Figure-3a-style transfer per file system; write timeline SVGs + JSONL traces")
	out := flag.String("out", "", "directory for CSV/JSON/SVG output (default: current)")
	faultsArg := flag.String("faults", "", "fault plan for every run: inline JSON or a plan file (sweep specs with their own faults template take precedence)")
	workloadArg := flag.String("workload", "", "workload for every run: inline JSON spec, a spec file, or a .csv block trace (sweep specs with their own workload template take precedence; specs that vary the pattern reject it)")
	flag.Parse()

	if *listSweeps {
		fmt.Printf("%-12s %-8s %-22s %s\n", "preset", "axis", "values", "title")
		for _, s := range exp.Presets() {
			values := strings.Trim(strings.ReplaceAll(fmt.Sprint(s.Values), " ", ","), "[]")
			if s.Axis == exp.AxisPattern {
				values = fmt.Sprintf("%d patterns", len(s.Patterns))
			}
			fmt.Printf("%-12s %-8s %-22s %s\n", s.Name, s.Axis, values, s.Title)
		}
		return
	}

	opt := exp.Options{
		Trials:    *trials,
		FileBytes: *fileMB * exp.MiB,
		Seed:      *seed,
		Verify:    *verify,
		Workers:   *workers,
	}
	if *faultsArg != "" {
		plan, err := fault.ResolvePlan(*faultsArg)
		if err != nil {
			fatal(err)
		}
		opt.Faults = plan
	}
	if *workloadArg != "" {
		wl, err := workload.ResolveSpec(*workloadArg)
		if err != nil {
			fatal(err)
		}
		opt.Workload = wl
	}
	if !*quiet {
		start := time.Now()
		opt.Progress = func(line string) {
			fmt.Fprintf(os.Stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), line)
		}
	}

	writeOut := func(name string, data []byte) {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	// emit writes one executed sweep through the artifact table: the
	// text table to stdout, and each file its flag asks for.
	want := map[string]bool{
		"text": true, "tablecsv": *csv, "csv": *csv, "json": *jsonOut,
		"svg": *plotOut, "timesvg": *plotOut,
	}
	emit := func(results ...*exp.SweepResult) {
		for _, res := range results {
			for _, a := range plot.Artifacts {
				if !want[a.Format] {
					continue
				}
				data, err := a.Render(res)
				if err != nil {
					fatal(err)
				}
				switch name := a.File(res.Spec); {
				case data == nil: // no such view of this sweep
				case name == "":
					os.Stdout.Write(data)
				default:
					writeOut(name, data)
				}
			}
		}
	}

	if *sweep != "" {
		for _, name := range strings.Split(*sweep, ",") {
			if name == "" {
				continue
			}
			spec, err := exp.ResolveSweep(name)
			if err != nil {
				fatal(err)
			}
			res, err := spec.RunFull(opt)
			if err != nil {
				fatal(err)
			}
			emit(res)
		}
		if *traceRuns {
			traceFigure3Runs(opt, *out, writeOut)
		}
		return
	}

	figs := []string{"3", "4", "5", "6", "7", "8"}
	which := map[string]bool{}
	if *all || (*fig == "" && !*traceRuns) {
		which["table1"] = true
		for _, f := range figs {
			which[f] = true
		}
	}
	for _, f := range strings.Split(*fig, ",") {
		if f == "" {
			continue
		}
		key := strings.TrimPrefix(f, "fig")
		if key != "table1" && !slices.Contains(figs, key) {
			fatal(fmt.Errorf("unknown -fig value %q (want 3, 4, 5, 6, 7, 8 or table1)", f))
		}
		which[key] = true
	}

	if which["table1"] {
		fmt.Println(exp.Table1())
	}
	// When both pattern figures are requested, regenerate them together
	// and distill the paper's headline claims (printed after the other
	// figures).
	var headlines *exp.Headlines
	if which["3"] && which["4"] {
		h, results, err := exp.RegenerateHeadlines(opt)
		if err != nil {
			fatal(err)
		}
		headlines = h
		emit(results...)
		which["3"], which["4"] = false, false
	}
	for _, f := range figs {
		if !which[f] {
			continue
		}
		results, err := exp.Figure(opt, f)
		if err != nil {
			fatal(err)
		}
		emit(results...)
	}
	if headlines != nil {
		fmt.Println(headlines.Format())
	}
	if *traceRuns {
		traceFigure3Runs(opt, *out, writeOut)
	}
}

// traceFigure3Runs runs one traced Figure-3-style transfer per file
// system — random-blocks layout, 8-byte records, the cyclic rc pattern,
// Figure 3a's worst case — and writes each run's per-disk utilization
// timeline SVG plus its raw JSONL trace. This is the workload where the
// paper's mechanism is starkest: traditional caching goes
// request-bound, its disk tracks striped with idle gaps between cache
// requests, while disk-directed I/O keeps every track near-solid on
// double-buffered, schedule-ordered transfers. (With 8 KB records both
// systems are disk-bound and the timelines look alike; the throughput
// gap there is seek ordering, not idleness.)
func traceFigure3Runs(opt exp.Options, outDir string, writeOut func(name string, data []byte)) {
	for _, name := range []string{"tc", "ddio", "2phase"} {
		method, err := exp.ParseMethod(name)
		if err != nil {
			fatal(err)
		}
		cfg := exp.DefaultConfig()
		cfg.FileBytes = opt.FileBytes
		cfg.Seed = opt.Seed
		cfg.Verify = opt.Verify
		cfg.Layout = pfs.RandomBlocks
		cfg.RecordSize = 8
		cfg.Pattern = "rc"
		cfg.Method = method
		res, rec, err := exp.TracedRun(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace %-6s rc: %6.2f MB/s, mean disk utilization %3.0f%%, %d trace events\n",
			name, res.MBps, rec.MeanDiskUtilization(0)*100, rec.Len())
		title := fmt.Sprintf("disk activity — %v, rc pattern, random-blocks layout, 8-byte records", method)
		writeOut("timeline-"+name+".svg", []byte(plot.UtilizationTimeline(rec, title)))
		// Streamed, not buffered: large traces would otherwise be held
		// in memory twice.
		path := filepath.Join(outDir, "trace-"+name+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}

package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s_p50", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, reported by the traced pass.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range hostModules {
		defs = append(defs, metricDef{"host." + m, "share"})
	}
	defs = append(defs, metricDef{"host.speed_scale", "ratio"})
	for _, n := range []string{"sim.ns_per_event", "netsim.ns_per_msg", "disk.ns_per_request",
		"tcfs.ns_per_request", "core.ns_per_block", "pfs.ns_per_block"} {
		defs = append(defs, metricDef{n, "ns"})
	}
	for _, d := range probes() {
		defs = append(defs, metricDef{d.name + "_ns", "ns"}, metricDef{d.name + "_allocs", "count"})
	}
	return append(defs, []metricDef{
		// Simulated per-run counts: pure functions of the configs, so a
		// host-only change leaves every one unchanged.
		{"sim.events", "count"},
		{"sim.elapsed_s", "s"},
		{"netsim.msgs", "count"},
		{"netsim.bytes", "B"},
		{"disk.reads", "count"},
		{"disk.writes", "count"},
		{"disk.seeks", "count"},
		{"disk.busy_s", "s"},
		{"disk.wait_s", "s"},
		{"disk.ra_hit_ratio", "ratio"},
		{"bus.busy_s", "s"},
		{"iop.busy_s", "s"},
		{"cp.busy_s", "s"},
		{"tcfs.requests", "count"},
		{"tcfs.hit_ratio", "ratio"},
		{"tcfs.rmw", "count"},
		{"core.blocks", "count"},
		{"core.memputs", "count"},
		{"core.memgets", "count"},
		{"serve.hit_ratio", "ratio"},
		{"serve.cells_simulated", "count"},
		// Host timings too noisy to bound, or that exist on one
		// workload only.
		{"op_s_p90", "s"},
		{"sim.events_per_s", "1/s"},
		{"exp.sweep_s_p50", "s"},
		{"serve.hit_s_p50", "s"},
		{"serve.hit_s_p99", "s"},
		{"serve.miss_s_p50", "s"},
		{"serve.miss_s_p90", "s"},
		// The traced run.
		{"trace.overhead", "ratio"},
		{"trace.disk_util", "ratio"},
		{"trace.crit.disk", "share"},
		{"trace.crit.queue", "share"},
		{"trace.crit.service", "share"},
		{"trace.crit.retry", "share"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"runtime.gc_cpu_frac", "share"},
	}...)
}()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output, printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// collect attaches units to values, requiring a value for every def and
// nothing else: the output names exactly the metrics BENCHMARK.json
// declares for the pass.
func collect(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("bench: metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		var extra []string
		for name := range values {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("bench: undeclared metrics %v", extra)
	}
	return out, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never touches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

// compare.go decides whether a change moved the benchmark, by the
// paired-runs rule of the choosing-metrics method: at least ten
// alternating parent/change pairs; a gain only when the change wins at
// least nine tenths of the pairs and the medians differ by more than the
// parent's interquartile range; a regression when the change's median is
// worse than the parent's by more than the metric's bound; unresolved
// when either side's spread exceeds the bound, unless every change run
// beats every parent run.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// benchDef is the part of BENCHMARK.json compare reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is one metric's comparison on one workload.
type verdict struct {
	pairs, wins    int
	parent, change [3]float64 // first quartile, median, third quartile
	delta          float64    // (change median - parent median) / parent median
	call           string
}

// compareMetric compares paired samples a (parent) and b (change), where
// a[i] and b[i] ran as pair i.
func compareMetric(a, b []float64, higherBetter bool, bound float64) verdict {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	var v verdict
	v.pairs = n
	v.parent[0], v.parent[1], v.parent[2] = quartiles(a)
	v.change[0], v.change[1], v.change[2] = quartiles(b)
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			v.wins++
		}
	}
	v.delta = ratio(v.change[1]-v.parent[1], v.parent[1])
	worse := v.delta
	if higherBetter {
		worse = -worse
	}
	iqr := v.parent[2] - v.parent[0]
	switch {
	case n < minPairs:
		v.call = fmt.Sprintf("too few pairs (need %d)", minPairs)
	case 10*v.wins >= 9*n && better(v.change[1], v.parent[1]) && math.Abs(v.change[1]-v.parent[1]) > iqr:
		v.call = "gain"
	case spread(a) > bound || spread(b) > bound:
		if allBetter(b, a, better) {
			v.call = "better in every run"
		} else {
			v.call = "unresolved"
		}
	case worse > bound:
		v.call = "regression"
	default:
		v.call = "within bound"
	}
	return v
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// readRecords reads an -append file: untraced runs grouped by workload,
// in run order.
func readRecords(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		if r.Trace == 0 && r.Result != nil {
			out[r.Workload] = append(out[r.Workload], r.Result)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per workload and end-to-end metric.
func compareFiles(w io.Writer, benchPath, parentPath, changePath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("bench: %s: %w", benchPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("bench: no workload has runs in both files")
	}
	fmt.Fprintf(w, "%-15s %-14s %-38s %-38s %8s %6s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, name := range names {
		for _, m := range def.EndToEnd {
			a := values(parent[name], m.Name)
			b := values(change[name], m.Name)
			v := compareMetric(a, b, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-15s %-14s %-38s %-38s %+7.2f%% %3d/%-2d  %s\n", name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.parent[1], v.parent[0], v.parent[2], m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.change[1], v.change[0], v.change[2], m.Unit),
				100*v.delta, v.wins, v.pairs, v.call)
		}
	}
	return nil
}

// values extracts one metric from a list of runs.
func values(runs []*result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

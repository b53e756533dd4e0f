package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values cycling mid·(1±spread) in a fixed order.
func around(mid, spread float64, n int) []float64 {
	steps := []float64{0, 1, -1, 0.5, -0.5}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mid * (1 + spread*steps[i%len(steps)])
	}
	return xs
}

func TestCompareMetric(t *testing.T) {
	for _, c := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"faster in every pair", around(1, 0.01, 10), around(0.8, 0.01, 10), false, 0.1, "gain"},
		{"throughput up", around(100, 0.01, 10), around(120, 0.01, 10), true, 0.1, "gain"},
		{"same", around(1, 0.01, 10), around(1, 0.01, 10), false, 0.1, "within bound"},
		{"small slowdown", around(1, 0.01, 10), around(1.05, 0.01, 10), false, 0.1, "within bound"},
		{"slower beyond bound", around(1, 0.01, 10), around(1.2, 0.01, 10), false, 0.1, "regression"},
		{"throughput down", around(100, 0.01, 10), around(80, 0.01, 10), true, 0.1, "regression"},
		{"noisy parent", around(1, 0.3, 10), around(1.1, 0.3, 10), false, 0.1, "unresolved"},
		{"noisy but disjoint", around(2, 0.3, 10), around(1, 0.3, 10), false, 0.1, "gain"},
		{"nine pairs", around(1, 0.01, 9), around(0.8, 0.01, 9), false, 0.1, "too few pairs (need 10)"},
	} {
		if got := compareMetric(c.a, c.b, c.higherBetter, c.bound); got.call != c.want {
			t.Errorf("%s: %q (%+v), want %q", c.name, got.call, got, c.want)
		}
	}
}

func TestCompareMetricNeedsNineOfTenWins(t *testing.T) {
	a := around(1, 0.001, 10)
	b := around(0.8, 0.001, 10)
	b[0], b[1] = 1.5, 1.5 // two lost pairs: 8 of 10 wins
	if got := compareMetric(a, b, false, 0.1); got.call == "gain" || got.wins != 8 {
		t.Errorf("8 of 10 wins gave %q with %d wins", got.call, got.wins)
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64) string {
		var buf bytes.Buffer
		for i, v := range around(ops, 0.01, 10) {
			line, _ := json.Marshal(record{Workload: "tc-read-8b", Seed: int64(i), Result: &result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"ops_per_s": {Value: v, Unit: "1/s"}},
			}})
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, change := write("a.jsonl", 4), write("b.jsonl", 5)
	var out bytes.Buffer
	if err := compareFiles(&out, "../BENCHMARK.json", parent, change); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "ops_per_s") {
			row = l
		}
	}
	if !strings.HasPrefix(row, "tc-read-8b") || !strings.HasSuffix(row, "gain") {
		t.Errorf("ops_per_s row %q, want a tc-read-8b gain\n%s", row, out.String())
	}
}

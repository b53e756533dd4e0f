package ddio_test

import (
	"strings"
	"testing"

	"ddio"
)

// The facade tests double as compile-time proof that the public API is
// usable without reaching into internal packages.

func smallConfig() ddio.Config {
	cfg := ddio.DefaultConfig()
	cfg.NCP, cfg.NIOP, cfg.NDisks = 4, 4, 4
	cfg.FileBytes = 1 * ddio.MiB
	return cfg
}

func TestDefaultConfigIsTable1(t *testing.T) {
	cfg := ddio.DefaultConfig()
	if cfg.NCP != 16 || cfg.NIOP != 16 || cfg.NDisks != 16 {
		t.Fatalf("machine %d/%d/%d", cfg.NCP, cfg.NIOP, cfg.NDisks)
	}
	if cfg.FileBytes != 10*ddio.MiB || cfg.BlockSize != 8192 {
		t.Fatalf("file %d/%d", cfg.FileBytes, cfg.BlockSize)
	}
	if cfg.Disk.Name != "HP97560" {
		t.Fatalf("disk %q", cfg.Disk.Name)
	}
}

func TestPublicRun(t *testing.T) {
	cfg := smallConfig()
	cfg.Method = ddio.DiskDirectedSort
	cfg.Pattern = "rb"
	res, err := ddio.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MBps <= 0 || res.VerifyErrors != 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestPublicTrials(t *testing.T) {
	cfg := smallConfig()
	cfg.Method = ddio.TraditionalCaching
	cfg.Pattern = "rc"
	tr, err := ddio.RunTrials(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Mean <= 0 || len(tr.Results) != 2 {
		t.Fatalf("trial %+v", tr)
	}
}

func TestPublicParsers(t *testing.T) {
	if m, err := ddio.ParseMethod("ddio"); err != nil || m != ddio.DiskDirected {
		t.Fatalf("ParseMethod: %v %v", m, err)
	}
	if l, err := ddio.ParseLayout("contiguous"); err != nil || l != ddio.Contiguous {
		t.Fatalf("ParseLayout: %v %v", l, err)
	}
}

func TestPublicPatternLists(t *testing.T) {
	if len(ddio.AllPatterns()) != len(ddio.ReadPatterns())+len(ddio.WritePatterns()) {
		t.Fatal("pattern list arithmetic")
	}
}

func TestPublicDiskModel(t *testing.T) {
	spec := ddio.HP97560()
	if spec.Cylinders != 1962 {
		t.Fatalf("cylinders %d", spec.Cylinders)
	}
	if spec.SustainedRate() <= 0 {
		t.Fatal("no sustained rate")
	}
}

func TestPublicTable1(t *testing.T) {
	if !strings.Contains(ddio.Table1(), "HP97560") {
		t.Fatal("Table1 content")
	}
}

// TestPublicSweepFigures runs a one-cell sweep through the facade and
// renders its figures: a line figure, and no time-domain companion for
// a fault-free classic sweep.
func TestPublicSweepFigures(t *testing.T) {
	spec := &ddio.SweepSpec{Name: "one", Title: "one cell", Axis: "cps", Values: []int{2},
		IOPs: 2, Disks: 2, Layout: "contiguous", Methods: []string{"ddio"}, Patterns: []string{"rb"}}
	res, err := spec.RunFull(ddio.Options{Trials: 1, FileBytes: 1 * ddio.MiB, Seed: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if svg := ddio.SweepFigureSVG(res); !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "one cell") {
		t.Fatalf("sweep figure: %.80q", svg)
	}
	if svg := ddio.SweepTimeFigureSVG(res); svg != "" {
		t.Fatalf("fault-free sweep has a time figure: %.80q", svg)
	}
}

func TestAllMethodsAllPatternsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pattern sweep")
	}
	for _, pattern := range ddio.AllPatterns() {
		cfg := smallConfig()
		cfg.Method = ddio.DiskDirectedSort
		cfg.Pattern = pattern
		res, err := ddio.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", pattern, err)
		}
		if res.VerifyErrors != 0 {
			t.Fatalf("%s: %d verify errors", pattern, res.VerifyErrors)
		}
	}
}

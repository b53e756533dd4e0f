// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in the
// paper (§5–7). Each benchmark iteration runs the figure's full
// pattern/method grid on a scaled-down file (shapes are stable well
// below 10 MB; the cmd/figures tool runs the full-size version) and
// reports mean throughput via b.ReportMetric.
//
// Run with: go test -bench=. -benchmem
package ddio_test

import (
	"testing"

	"ddio"
)

// benchOptions is the scaled configuration all figure benchmarks share.
func benchOptions(fileBytes int64) ddio.Options {
	return ddio.Options{Trials: 1, FileBytes: fileBytes, Seed: 11, Verify: false}
}

// reportTables pushes every cell mean into the benchmark metrics stream
// as an overall average (MB/s) so regressions in simulated throughput
// are visible alongside wall-clock regressions.
func reportTables(b *testing.B, tables ...*ddio.Table) {
	b.Helper()
	var sum float64
	var n int
	for _, t := range tables {
		for i := range t.Cells {
			for j := range t.Cells[i] {
				if t.Cols[j] == "max-bw" {
					continue
				}
				sum += t.Cells[i][j].Mean
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "simMB/s")
	}
}

// BenchmarkTable1 covers the parameters table: it exercises building
// the full Table 1 machine and running one transfer on it.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ddio.DefaultConfig()
		cfg.FileBytes = 1 * ddio.MiB
		cfg.Method = ddio.DiskDirectedSort
		cfg.Pattern = "rb"
		cfg.Verify = false
		res, err := ddio.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MBps, "simMB/s")
	}
}

// benchPatternGrid runs one figure-3/4 style grid: every pattern under
// the given methods at one layout and record size.
func benchPatternGrid(b *testing.B, fileBytes int64, layout ddio.LayoutKind,
	recordSize int, methods []ddio.Method) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		var sum float64
		var n int
		for _, pattern := range ddio.AllPatterns() {
			for _, m := range methods {
				cfg := ddio.DefaultConfig()
				cfg.FileBytes = fileBytes
				cfg.Layout = layout
				cfg.RecordSize = recordSize
				cfg.Pattern = pattern
				cfg.Method = m
				cfg.Seed = 11
				cfg.Verify = false
				res, err := ddio.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.MBps
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "simMB/s")
	}
}

// BenchmarkFig3a: random-blocks layout, 8-byte records, all 19 patterns
// under TC, DDIO, and DDIO+sort.
func BenchmarkFig3a(b *testing.B) {
	benchPatternGrid(b, ddio.MiB/2, ddio.RandomBlocks, 8,
		[]ddio.Method{ddio.TraditionalCaching, ddio.DiskDirected, ddio.DiskDirectedSort})
}

// BenchmarkFig3b: random-blocks layout, 8192-byte records.
func BenchmarkFig3b(b *testing.B) {
	benchPatternGrid(b, 1*ddio.MiB, ddio.RandomBlocks, 8192,
		[]ddio.Method{ddio.TraditionalCaching, ddio.DiskDirected, ddio.DiskDirectedSort})
}

// BenchmarkFig3bParallel: the BenchmarkFig3b grid fanned out on the
// parallel runner (GOMAXPROCS workers). Compare against BenchmarkFig3b
// for the end-to-end regeneration speedup on a multi-core machine; on
// one core the two are equivalent.
func BenchmarkFig3bParallel(b *testing.B) {
	var cfgs []ddio.Config
	for _, pattern := range ddio.AllPatterns() {
		for _, m := range []ddio.Method{ddio.TraditionalCaching, ddio.DiskDirected, ddio.DiskDirectedSort} {
			cfg := ddio.DefaultConfig()
			cfg.FileBytes = 1 * ddio.MiB
			cfg.Layout = ddio.RandomBlocks
			cfg.RecordSize = 8192
			cfg.Pattern = pattern
			cfg.Method = m
			cfg.Seed = 11
			cfg.Verify = false
			cfgs = append(cfgs, cfg)
		}
	}
	r := ddio.NewRunner(0, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := r.RunAll(cfgs, nil)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, res := range results {
			sum += res.MBps
		}
		b.ReportMetric(sum/float64(len(results)), "simMB/s")
	}
}

// BenchmarkFig4a: contiguous layout, 8-byte records.
func BenchmarkFig4a(b *testing.B) {
	benchPatternGrid(b, ddio.MiB/2, ddio.Contiguous, 8,
		[]ddio.Method{ddio.TraditionalCaching, ddio.DiskDirected})
}

// BenchmarkFig4b: contiguous layout, 8192-byte records.
func BenchmarkFig4b(b *testing.B) {
	benchPatternGrid(b, 1*ddio.MiB, ddio.Contiguous, 8192,
		[]ddio.Method{ddio.TraditionalCaching, ddio.DiskDirected})
}

// BenchmarkFig5: throughput vs number of CPs.
func BenchmarkFig5(b *testing.B) {
	o := benchOptions(1 * ddio.MiB)
	for i := 0; i < b.N; i++ {
		t, err := ddio.Figure5(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, t)
	}
}

// BenchmarkFig6: throughput vs number of IOPs/busses.
func BenchmarkFig6(b *testing.B) {
	o := benchOptions(1 * ddio.MiB)
	for i := 0; i < b.N; i++ {
		t, err := ddio.Figure6(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, t)
	}
}

// BenchmarkFig7: throughput vs number of disks, contiguous.
func BenchmarkFig7(b *testing.B) {
	o := benchOptions(1 * ddio.MiB)
	for i := 0; i < b.N; i++ {
		t, err := ddio.Figure7(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, t)
	}
}

// BenchmarkFig8: throughput vs number of disks, random-blocks.
func BenchmarkFig8(b *testing.B) {
	o := benchOptions(1 * ddio.MiB)
	for i := 0; i < b.N; i++ {
		t, err := ddio.Figure8(o)
		if err != nil {
			b.Fatal(err)
		}
		reportTables(b, t)
	}
}

// --- Ablations (paper §5–7) ---

// benchOne runs a single configuration and reports simulated MB/s.
func benchOne(b *testing.B, mutate func(*ddio.Config)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := ddio.DefaultConfig()
		cfg.FileBytes = 1 * ddio.MiB
		cfg.Verify = false
		mutate(&cfg)
		res, err := ddio.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MBps, "simMB/s")
	}
}

// BenchmarkAblationPresortOn/Off: the paper's own 41–50% presort claim.
func BenchmarkAblationPresortOn(b *testing.B) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.DiskDirectedSort
		c.Pattern = "rb"
		c.Layout = ddio.RandomBlocks
	})
}

func BenchmarkAblationPresortOff(b *testing.B) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.DiskDirected
		c.Pattern = "rb"
		c.Layout = ddio.RandomBlocks
	})
}

// BenchmarkAblationBuffers1/2/4: double-buffering depth per disk.
func BenchmarkAblationBuffers1(b *testing.B) { benchBuffers(b, 1) }
func BenchmarkAblationBuffers2(b *testing.B) { benchBuffers(b, 2) }
func BenchmarkAblationBuffers4(b *testing.B) { benchBuffers(b, 4) }

func benchBuffers(b *testing.B, buffers int) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.DiskDirected
		c.Pattern = "rc"
		c.RecordSize = 8
		c.Layout = ddio.Contiguous
		c.DD.BuffersPerDisk = buffers
	})
}

// BenchmarkAblationGatherScatter: the paper's future-work batched
// Memput/Memget vs per-record messages on the worst-case pattern.
func BenchmarkAblationGatherScatterOff(b *testing.B) { benchGS(b, false) }
func BenchmarkAblationGatherScatterOn(b *testing.B)  { benchGS(b, true) }

func benchGS(b *testing.B, on bool) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.DiskDirectedSort
		c.Pattern = "rc"
		c.RecordSize = 8
		c.Layout = ddio.Contiguous
		c.DD.GatherScatter = on
	})
}

// BenchmarkAblationDiskCacheOff: why contiguous layouts need the drive's
// read-ahead cache.
func BenchmarkAblationDiskCacheOff(b *testing.B) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.DiskDirected
		c.Pattern = "rb"
		c.Layout = ddio.Contiguous
		spec := *ddio.HP97560()
		spec.CacheSegmentSectors = 0
		c.Disk = &spec
	})
}

// BenchmarkAblationTwoPhase: two-phase I/O on a permuting pattern,
// for comparison against DDIO (§7.1).
func BenchmarkAblationTwoPhase(b *testing.B) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.TwoPhase
		c.Pattern = "rc"
		c.Layout = ddio.RandomBlocks
	})
}

// BenchmarkAblationStridedTC: the paper's future-work "strided requests"
// for the traditional system.
func BenchmarkAblationStridedTC(b *testing.B) {
	benchOne(b, func(c *ddio.Config) {
		c.Method = ddio.TraditionalCaching
		c.Pattern = "rc"
		c.Layout = ddio.Contiguous
		c.TC.StridedRequests = true
	})
}

// --- Substrate micro-benchmarks (simulator performance itself) ---

// BenchmarkSimulatorEventRate measures raw wall-clock cost per simulated
// event on a message-heavy run.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ddio.DefaultConfig()
		cfg.FileBytes = ddio.MiB / 2
		cfg.Method = ddio.TraditionalCaching
		cfg.Pattern = "rc"
		cfg.RecordSize = 8
		cfg.Verify = false
		res, err := ddio.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

// BenchmarkLargeMachineDDWrite measures the simulator on its largest
// event population: disk-directed I/O with presort writing 8-byte
// records (one Memget per record) on 64 CPs, 64 IOPs and 64 disks.
func BenchmarkLargeMachineDDWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := ddio.DefaultConfig()
		cfg.FileBytes = ddio.MiB / 2
		cfg.Method = ddio.DiskDirectedSort
		cfg.Pattern = "wc"
		cfg.RecordSize = 8
		cfg.NCP, cfg.NIOP, cfg.NDisks = 64, 64, 64
		cfg.Verify = false
		res, err := ddio.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Events), "events/op")
	}
}

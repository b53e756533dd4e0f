// Command diskmodel characterizes the HP 97560 disk model against its
// published behaviour — the stand-in for the trace-based validation of
// Kotz/Toh/Radhakrishnan (TR94-220), whose HP traces are not available.
// It prints the geometry, samples the seek curve, and measures
// sequential, random, and sorted-sweep service with the full mechanical
// model.
//
//	diskmodel [-blocks 512]
package main

import (
	"flag"
	"fmt"
	"sort"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

func main() {
	blocks := flag.Int("blocks", 512, "blocks per micro-benchmark")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	spec := disk.HP97560()
	fmt.Printf("%s: %d cylinders x %d heads x %d sectors x %d B = %.2f GB\n",
		spec.Name, spec.Cylinders, spec.Heads, spec.SectorsPerTrack, spec.SectorSize,
		float64(spec.Capacity())/1e9)
	fmt.Printf("rotation %.3f ms (%g RPM), media rate %.2f MB/s, sustained %.2f MB/s\n",
		spec.RevTime().Seconds()*1e3, spec.RPM, spec.MediaRate()/(1<<20), spec.SustainedRate()/(1<<20))

	fmt.Println("\nseek curve (published: 3.24+0.400*sqrt(d) ms short, 8.00+0.008d ms long):")
	for _, d := range []int{1, 4, 16, 64, 256, 383, 384, 1000, 1961} {
		fmt.Printf("  seek %5d cyl: %8.3f ms\n", d, spec.Seek(d).Seconds()*1e3)
	}

	fmt.Println("\nmicro-benchmarks (8 KB accesses, queue depth 1):")
	fmt.Printf("  sequential read:  %s\n", bench(*seed, *blocks, seqSlots(*blocks), false))
	fmt.Printf("  sequential write: %s\n", bench(*seed, *blocks, seqSlots(*blocks), true))
	rnd := randomSlots(*seed, *blocks, spec)
	fmt.Printf("  random read:      %s\n", bench(*seed, *blocks, rnd, false))
	srt := append([]int64(nil), rnd...)
	sort.Slice(srt, func(i, j int) bool { return srt[i] < srt[j] })
	fmt.Printf("  sorted sweep:     %s\n", bench(*seed, *blocks, srt, false))
}

func seqSlots(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) * 16
	}
	return out
}

func randomSlots(seed int64, n int, spec *disk.Spec) []int64 {
	rng := sim.NewRand(seed)
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(spec.TotalSectors()/16-1) * 16
	}
	return out
}

// bench runs the access list on a fresh disk and reports throughput and
// mean service time.
func bench(seed int64, n int, slots []int64, write bool) string {
	e := sim.NewEngine()
	defer e.Close()
	d := disk.New(e, "bench", disk.HP97560(), nil)
	data := make([]byte, 16*512)
	var end sim.Time
	e.Go("driver", func(p *sim.Proc) {
		for _, s := range slots {
			if write {
				d.WriteSync(p, s, data)
			} else {
				d.ReadSync(p, s, data)
			}
		}
		d.Flush(p)
		end = p.Now()
	})
	e.Run()
	bytes := float64(n * 16 * 512)
	m := d.Metrics()
	return fmt.Sprintf("%6.2f MB/s, %7.3f ms/op  (%d seeks, %d cache hits, %d streamed)",
		bytes/end.Seconds()/(1<<20),
		end.Seconds()*1e3/float64(n),
		m.SeekCount, m.CacheHits, m.CacheStreams)
}

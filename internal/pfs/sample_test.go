package pfs

import (
	"fmt"
	"testing"
	"testing/quick"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

// sample draws k slots from [0, n) with a fresh sampler map.
func sample(r *sim.Rand, n int64, k int) []int64 {
	out := make([]int64, k)
	sampleSlots(r, n, out, make(map[int64]int64, k))
	return out
}

// Property: every sample is k unique values in [0, n), for arbitrary
// seeds and sizes.
func TestQuickSampleSlotsUniqueInRange(t *testing.T) {
	f := func(seed int64, nSel, kSel uint16) bool {
		n := int64(nSel)%100000 + 1
		k := int(int64(kSel) % (n + 1))
		out := sample(sim.NewRand(seed), n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int64]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A full-population sample is a permutation.
func TestSampleSlotsFullPermutation(t *testing.T) {
	const n = 1000
	out := sample(sim.NewRand(7), n, n)
	seen := make(map[int64]bool, n)
	for _, v := range out {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("not a permutation: %d", v)
		}
		seen[v] = true
	}
}

func TestSampleSlotsOverdrawPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sample larger than population did not panic")
		}
	}()
	sample(sim.NewRand(1), 4, 5)
}

// Golden placement: the O(k) sampler is part of the experiment's
// deterministic seed contract, so a fixed seed must keep producing the
// same slots across refactors. Values are the HP 97560's 167580
// 8 KB-block slots; update them only with a deliberate seed-breaking
// change.
func TestSampleSlotsGolden(t *testing.T) {
	got := sample(sim.NewRand(1), 167580, 8)
	want := []int64{75290, 81956, 56307, 141218, 29253, 71950, 166032, 47095}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
	// And through NewFile's per-disk stream derivation, as experiments
	// actually consume it.
	rng := sim.NewRand(42)
	got = sample(rng.Stream("layout:disk0"), 167580, 8)
	want = []int64{41619, 4783, 128749, 19694, 18762, 118564, 88828, 91454}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stream slot %d: got %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

// BenchmarkNewFileRandom guards the O(transfer) setup claim: building a
// small random-blocks file on full-size HP 97560 disks must cost
// proportional to the file's dozen-odd blocks, not the ~165k block
// slots of the disk. Before the partial Fisher–Yates sampler this was
// ~2 ms/op (rng.Perm over every slot, per disk); now it is microseconds.
func BenchmarkNewFileRandom(b *testing.B) {
	e := sim.NewEngine()
	defer e.Close()
	disks := make([]*disk.Disk, 16)
	for i := range disks {
		disks[i] = disk.New(e, "d", disk.HP97560(), nil)
	}
	rng := sim.NewRand(11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewFile(disks, 8192, 128, RandomBlocks, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRandomPlacementMatchesPerDiskSampler: drawing every disk's
// samples into the placement through one reused map gives the
// placement that a fresh sample and map per disk, from streams labelled
// with fmt, give, for even and uneven block counts on 1 to 64 disks.
func TestRandomPlacementMatchesPerDiskSampler(t *testing.T) {
	for _, nd := range []int{1, 4, 16, 64} {
		for _, blocks := range []int{nd, 3*nd + 1, 128} {
			for _, seed := range []int64{1, 42} {
				disks := newDisks(t, nd)
				f := &File{BlockSize: 8192, NumBlocks: blocks, Disks: disks, sectorsPerBlock: 16}
				const slots = 167580
				got := f.randomPlacement(sim.NewRand(seed), slots)
				rng := sim.NewRand(seed)
				for d := range disks {
					slots := sample(rng.Stream(fmt.Sprintf("layout:disk%d", d)), slots, f.blocksOnDisk(d))
					for i, s := range slots {
						b := d + i*nd
						if got[b] != s*f.sectorsPerBlock {
							t.Fatalf("%d disks, %d blocks, seed %d: block %d at sector %d, want %d", nd, blocks, seed, b, got[b], s*f.sectorsPerBlock)
						}
					}
				}
			}
		}
	}
}

// TestNewFileFreshSeedAllocs: a memo miss on 64 disks costs the three
// allocations of each disk's seeded stream and a handful per file: the
// stream label and the sampler's slots and map are not allocated per
// disk.
func TestNewFileFreshSeedAllocs(t *testing.T) {
	isolateLayouts(t)
	disks := newDisks(t, 64)
	seed := int64(100)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		if _, err := NewFile(disks, 8192, 64, RandomBlocks, sim.NewRand(seed)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("fresh-seed NewFile on 64 disks: %v allocations, want at most 200", allocs)
	}
}

package pfs

import (
	"slices"
	"sync"
	"testing"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

// isolateLayouts gives the test an empty placement memo and restores the
// process's memo when the test ends.
func isolateLayouts(t *testing.T) *layoutMemo {
	t.Helper()
	old := layouts
	layouts = new(layoutMemo)
	t.Cleanup(func() { layouts = old })
	return layouts
}

// stored returns the number of placements the memo holds.
func stored(m *layoutMemo) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, p := range m.placements {
		if p != nil {
			n++
		}
	}
	return n
}

// fileShape is one NewFile call's inputs.
type fileShape struct {
	disks     []*disk.Disk
	blockSize int
	numBlocks int
	seed      int64
}

func (s fileShape) build(t *testing.T) *File {
	t.Helper()
	f, err := NewFile(s.disks, s.blockSize, s.numBlocks, RandomBlocks, sim.NewRand(s.seed))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// uncached is the placement NewFile builds for s with an empty memo.
func (s fileShape) uncached(t *testing.T) []int64 {
	t.Helper()
	saved := layouts
	layouts = new(layoutMemo)
	defer func() { layouts = saved }()
	return s.build(t).placement
}

// disksOf returns n disks of the given geometry on one engine.
func disksOf(t *testing.T, n int, spec *disk.Spec) []*disk.Disk {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	out := make([]*disk.Disk, n)
	for i := range out {
		out[i] = disk.New(e, "d", spec, nil)
	}
	return out
}

// TestLayoutMemoHitEqualsColdBuild: a second NewFile with the same seed
// and geometry shares the first one's placement, which equals the
// placement an empty memo builds.
func TestLayoutMemoHitEqualsColdBuild(t *testing.T) {
	m := isolateLayouts(t)
	s := fileShape{newDisks(t, 4), 8192, 64, 3}
	cold := s.build(t)
	if stored(m) != 1 {
		t.Fatalf("memo holds %d placements after one random file, want 1", stored(m))
	}
	warm := s.build(t)
	if &warm.placement[0] != &cold.placement[0] {
		t.Fatal("second file with the same key did not reuse the stored placement")
	}
	if want := s.uncached(t); !slices.Equal(warm.placement, want) {
		t.Fatalf("memoized placement %v differs from a cold build %v", warm.placement, want)
	}
	// Another Rand with the same seed, after draws, is the same key.
	rng := sim.NewRand(3)
	rng.Int63()
	f, err := NewFile(s.disks, 8192, 64, RandomBlocks, rng)
	if err != nil {
		t.Fatal(err)
	}
	if &f.placement[0] != &cold.placement[0] {
		t.Fatal("a used Rand of the same seed missed the memo")
	}
}

// TestLayoutMemoKeyFields: with the base placement stored, changing any
// one key field — disk count, block count, block size, disk geometry or
// seed — builds exactly the placement an empty memo would.
func TestLayoutMemoKeyFields(t *testing.T) {
	isolateLayouts(t)
	small := disk.HP97560()
	small.Cylinders = 900
	base := fileShape{newDisks(t, 4), 8192, 64, 3}
	for _, c := range []struct {
		name string
		s    fileShape
	}{
		{"disks", fileShape{newDisks(t, 5), 8192, 64, 3}},
		{"blocks", fileShape{base.disks, 8192, 65, 3}},
		{"block size", fileShape{base.disks, 4096, 64, 3}},
		{"disk spec", fileShape{disksOf(t, 4, small), 8192, 64, 3}},
		{"seed", fileShape{base.disks, 8192, 64, 4}},
	} {
		base.build(t)
		got := c.s.build(t)
		if want := c.s.uncached(t); !slices.Equal(got.placement, want) {
			t.Errorf("%s changed: placement %v, want the uncached %v", c.name, got.placement, want)
		}
	}
}

// TestContiguousLayoutNotMemoized: contiguous placements are cheap and
// seed-free, and never enter the memo.
func TestContiguousLayoutNotMemoized(t *testing.T) {
	m := isolateLayouts(t)
	if _, err := NewFile(newDisks(t, 4), 8192, 64, Contiguous, sim.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	if n := stored(m); n != 0 {
		t.Fatalf("memo holds %d placements after a contiguous file, want 0", n)
	}
}

// TestLayoutMemoHitAllocatesOnlyTheFile: a hit skips the per-disk
// streams and the sampler; the only allocation left is the File.
func TestLayoutMemoHitAllocatesOnlyTheFile(t *testing.T) {
	isolateLayouts(t)
	disks := newDisks(t, 16)
	rng := sim.NewRand(11)
	if _, err := NewFile(disks, 8192, 128, RandomBlocks, rng); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewFile(disks, 8192, 128, RandomBlocks, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("memo hit: %v allocations per NewFile, want at most 1 (the File)", allocs)
	}
}

// TestLayoutMemoConcurrent: goroutines building files of mixed keys,
// more keys than the memo holds, each get the uncached placement; run
// under -race it checks the memo's locking. Each goroutine builds on
// disks of its own, as each run does: NewFile installs the file in its
// disks.
func TestLayoutMemoConcurrent(t *testing.T) {
	isolateLayouts(t)
	var shapes []fileShape
	for _, n := range []int{2, 4, 16} {
		disks := newDisks(t, n)
		for seed := range int64(7) {
			shapes = append(shapes, fileShape{disks, 8192, 48, seed})
		}
	}
	want := make([][]int64, len(shapes))
	for i, s := range shapes {
		want[i] = s.uncached(t)
	}
	var own [8]map[int][]*disk.Disk // each worker's disks, by count
	for w := range own {
		own[w] = map[int][]*disk.Disk{}
		for _, n := range []int{2, 4, 16} {
			own[w][n] = newDisks(t, n)
		}
	}
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 200 {
				i := (w*7 + k*5) % len(shapes)
				s := shapes[i]
				f, err := NewFile(own[w][len(s.disks)], s.blockSize, s.numBlocks, RandomBlocks, sim.NewRand(s.seed))
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(f.placement, want[i]) {
					t.Errorf("shape %d: placement differs from the uncached build", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Package pfs provides the parallel-file abstraction shared by both file
// systems under study: a file declustered block by block across all
// disks (paper §4: "Files were striped across all disks, block by
// block"), with the physical placement of each disk's blocks governed by
// a layout policy — contiguous or random-blocks (§5).
package pfs

import (
	"fmt"
	"sync"

	"ddio/internal/disk"
	"ddio/internal/sim"
)

// LayoutKind selects the physical placement of file blocks on each disk.
type LayoutKind int

// Layouts from the paper's §5.
const (
	// Contiguous places a disk's file blocks in consecutive physical
	// blocks starting at sector zero.
	Contiguous LayoutKind = iota
	// RandomBlocks places each file block at an independently chosen
	// random physical block slot.
	RandomBlocks
)

// String returns the layout's display name.
func (k LayoutKind) String() string {
	switch k {
	case Contiguous:
		return "contiguous"
	case RandomBlocks:
		return "random-blocks"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// ParseLayout converts a layout name to its kind.
func ParseLayout(s string) (LayoutKind, error) {
	switch s {
	case "contiguous", "contig":
		return Contiguous, nil
	case "random-blocks", "random":
		return RandomBlocks, nil
	}
	return 0, fmt.Errorf("pfs: unknown layout %q", s)
}

// File is a striped parallel file.
type File struct {
	BlockSize int          // bytes per file block
	NumBlocks int          // file length in blocks
	Disks     []*disk.Disk // stripe set; block b lives on disk b mod len

	sectorsPerBlock int64
	placement       []int64 // file block -> starting sector on its disk
}

// NewFile creates a file of numBlocks blocks of blockSize bytes striped
// over the given disks with the requested layout. rng seeds the
// random-blocks placement (one independent stream per disk); only its
// seed is read, so a placement is a function of the seed and the
// geometry, and is built once per process for each (see layouts).
func NewFile(disks []*disk.Disk, blockSize, numBlocks int, layout LayoutKind, rng *sim.Rand) (*File, error) {
	if len(disks) == 0 {
		return nil, fmt.Errorf("pfs: file needs at least one disk")
	}
	spec := disks[0].Spec
	if blockSize%spec.SectorSize != 0 {
		return nil, fmt.Errorf("pfs: block size %d not a multiple of sector size %d", blockSize, spec.SectorSize)
	}
	f := &File{
		BlockSize:       blockSize,
		NumBlocks:       numBlocks,
		Disks:           disks,
		sectorsPerBlock: int64(blockSize / spec.SectorSize),
	}
	slotsPerDisk := spec.TotalSectors() / f.sectorsPerBlock
	if nLocal := f.blocksOnDisk(0); int64(nLocal) > slotsPerDisk { // disk 0 holds the most
		return nil, fmt.Errorf("pfs: %d blocks exceed disk capacity of %d slots", nLocal, slotsPerDisk)
	}
	switch layout {
	case Contiguous:
		f.placement = make([]int64, numBlocks)
		for b := range f.placement {
			f.placement[b] = int64(b/len(disks)) * f.sectorsPerBlock
		}
	case RandomBlocks:
		key := layoutKey{rng.Seed(), len(disks), numBlocks, f.sectorsPerBlock, slotsPerDisk}
		if f.placement = layouts.get(key); f.placement == nil {
			f.placement = f.randomPlacement(rng, slotsPerDisk)
			layouts.put(key, f.placement)
		}
	default:
		return nil, fmt.Errorf("pfs: unknown layout %v", layout)
	}
	ensureImage(f.Size())
	return f, nil
}

// randomPlacement draws the random-blocks placement: each disk's file
// blocks go to distinct slots sampled from that disk's own stream.
func (f *File) randomPlacement(rng *sim.Rand, slotsPerDisk int64) []int64 {
	p := make([]int64, f.NumBlocks)
	for d := range f.Disks {
		slots := sampleSlots(rng.Stream(fmt.Sprintf("layout:disk%d", d)), slotsPerDisk, f.blocksOnDisk(d))
		for i, s := range slots {
			p[d+i*len(f.Disks)] = s * f.sectorsPerBlock
		}
	}
	return p
}

// layoutKey is everything a random-blocks placement depends on: the run
// seed and the geometry it is drawn for.
type layoutKey struct {
	seed            int64
	disks, blocks   int
	sectorsPerBlock int64
	slotsPerDisk    int64
}

// layoutMemoSize bounds the placement memo. Every cell of one trial of a
// sweep shares its seed and geometry, so a sweep needs one entry per
// trial seed in flight (five at the paper's five trials), plus the next
// row's while workers straddle a change of disk count.
const layoutMemoSize = 16

// layoutMemo keeps the most recently built random-blocks placements,
// replacing the oldest entry first. A stored placement is shared by
// every File built with its key and is never written after NewFile, so
// concurrent runs may read one entry at once.
type layoutMemo struct {
	mu         sync.Mutex
	next       int // entry the next put replaces
	keys       [layoutMemoSize]layoutKey
	placements [layoutMemoSize][]int64
}

// layouts is the process's one placement memo.
var layouts = new(layoutMemo)

// get returns the placement stored under k, or nil.
func (m *layoutMemo) get(k layoutKey) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.placements {
		if p != nil && m.keys[i] == k {
			return p
		}
	}
	return nil
}

// put stores placement p under k in place of the oldest entry.
func (m *layoutMemo) put(k layoutKey, p []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys[m.next], m.placements[m.next] = k, p
	m.next = (m.next + 1) % layoutMemoSize
}

// blocksOnDisk returns how many file blocks live on disk d.
func (f *File) blocksOnDisk(d int) int {
	n := f.NumBlocks / len(f.Disks)
	if d < f.NumBlocks%len(f.Disks) {
		n++
	}
	return n
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(f.NumBlocks) * int64(f.BlockSize) }

// DiskOf returns the index of the disk holding file block b.
func (f *File) DiskOf(b int) int { return b % len(f.Disks) }

// LBN returns the starting sector of file block b on its disk.
func (f *File) LBN(b int) int64 { return f.placement[b] }

// LocalBlocks returns the file blocks resident on disk d, in ascending
// file order.
func (f *File) LocalBlocks(d int) []int {
	out := make([]int, 0, f.blocksOnDisk(d))
	for b := d; b < f.NumBlocks; b += len(f.Disks) {
		out = append(out, b)
	}
	return out
}

// Preload writes the deterministic file image to the disks directly,
// without simulating any I/O time, to set up read experiments. Each
// block is copied straight from the shared image prefix; only blocks
// past it are hashed, into one block buffer.
func (f *File) Preload() {
	bs := int64(f.BlockSize)
	var buf []byte
	for b := 0; b < f.NumBlocks; b++ {
		off := int64(b) * bs
		img := covered(off, bs)
		if img == nil {
			if buf == nil {
				buf = make([]byte, bs)
			}
			img = buf
			fillHash(img, off)
		}
		f.Disks[f.DiskOf(b)].WriteData(f.LBN(b), img)
	}
}

// VerifyRange checks file range [off, off+n) as stored on the disks
// against the image, without simulating any time. It reads the covered
// sectors one block at a time into buf, which must hold one block, and
// returns the file offset of the first bad byte, or -1.
func (f *File) VerifyRange(off, n int64, buf []byte) int64 {
	bs := int64(f.BlockSize)
	ss := bs / f.sectorsPerBlock
	for end := off + n; off < end; {
		b := off / bs
		lo, hi := off-b*bs, min(end-b*bs, bs)
		s0, s1 := lo/ss, (hi+ss-1)/ss
		f.Disks[f.DiskOf(int(b))].ReadData(f.LBN(int(b))+s0, buf[s0*ss:s1*ss])
		if i := VerifyImage(buf[lo:hi], off); i >= 0 {
			return off + int64(i)
		}
		off = (b + 1) * bs
	}
	return -1
}

// Package pfs provides the parallel-file abstraction shared by both file
// systems under study: a file declustered block by block across all
// disks (paper §4: "Files were striped across all disks, block by
// block"), with the physical placement of each disk's blocks governed by
// a layout policy — contiguous or random-blocks (§5).
package pfs

import (
	"fmt"
	"math"
	"slices"
	"strconv"
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

// File is a striped parallel file. It backs the store of each of its
// disks (disk.Backing): unstored sectors read from the file image, and
// writes stamp the file sectors they reach, for VerifyRange.
type File struct {
	BlockSize int          // bytes per file block
	NumBlocks int          // file length in blocks
	Disks     []*disk.Disk // stripe set; block b lives on disk b mod len

	sectorsPerBlock int64
	// placement maps a random-blocks file block to its starting sector
	// on its disk, and bySlot is its inverse: for each disk in turn, that
	// disk's slot<<32 | file block, ascending. Both are nil for the
	// contiguous layout, where either way is arithmetic.
	placement, bySlot []int64
	preloaded         bool     // every unwritten file sector reads as the image
	stamps            []uint64 // one bit per file sector, set when written; nil until the first write
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
	case Contiguous: // LBN and blockAt are arithmetic
	case RandomBlocks:
		if slotsPerDisk > math.MaxInt32 || numBlocks > math.MaxUint32 { // bySlot packs both in 64 bits
			return nil, fmt.Errorf("pfs: %d slots per disk or %d blocks too many for random-blocks", slotsPerDisk, numBlocks)
		}
		key := layoutKey{rng.Seed(), len(disks), numBlocks, f.sectorsPerBlock, slotsPerDisk}
		lay := layouts.get(key)
		if lay == nil {
			lay = f.randomPlacement(rng, slotsPerDisk)
			layouts.put(key, lay)
		}
		f.placement, f.bySlot = lay[:numBlocks:numBlocks], lay[numBlocks:]
	default:
		return nil, fmt.Errorf("pfs: unknown layout %v", layout)
	}
	ensureImage(f.Size())
	for i, d := range disks {
		d.SetBacking(f, i)
	}
	return f, nil
}

// randomPlacement draws the random-blocks placement: each disk's file
// blocks go to distinct slots sampled from that disk's own stream. It
// returns the placement followed by its inverse (see File.bySlot), in
// one allocation; the samples are drawn straight into the inverse's
// entries for the disk, through one sampler map cleared between disks.
func (f *File) randomPlacement(rng *sim.Rand, slotsPerDisk int64) []int64 {
	lay := make([]int64, 2*f.NumBlocks)
	p, bySlot := lay[:f.NumBlocks], lay[f.NumBlocks:]
	displaced := make(map[int64]int64, f.blocksOnDisk(0)) // disk 0 holds the most
	for d := range f.Disks {
		own := bySlot[f.firstOnDisk(d):][:f.blocksOnDisk(d)]
		clear(displaced)
		sampleSlots(rng.Stream("layout:disk"+strconv.Itoa(d)), slotsPerDisk, own, displaced)
		for i, s := range own {
			b := d + i*len(f.Disks)
			p[b] = s * f.sectorsPerBlock
			own[i] = s<<32 | int64(b)
		}
		slices.Sort(own)
	}
	return lay
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
// each followed by its inverse (randomPlacement), replacing the oldest
// entry first. A stored entry is shared by every File built with its
// key and is never written after NewFile, so concurrent runs may read
// one entry at once.
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

// firstOnDisk returns how many file blocks live on the disks before d:
// where disk d's entries start in bySlot.
func (f *File) firstOnDisk(d int) int {
	return d*(f.NumBlocks/len(f.Disks)) + min(d, f.NumBlocks%len(f.Disks))
}

// Size returns the file size in bytes.
func (f *File) Size() int64 { return int64(f.NumBlocks) * int64(f.BlockSize) }

// DiskOf returns the index of the disk holding file block b.
func (f *File) DiskOf(b int) int { return b % len(f.Disks) }

// LBN returns the starting sector of file block b on its disk.
func (f *File) LBN(b int) int64 {
	if f.placement == nil {
		return int64(b/len(f.Disks)) * f.sectorsPerBlock
	}
	return f.placement[b]
}

// blockAt returns the file block in block slot slot of disk unit (the
// one starting at sector slot*sectorsPerBlock), or -1 if none is there.
func (f *File) blockAt(unit int, slot int64) int {
	if f.bySlot == nil {
		if b := slot*int64(len(f.Disks)) + int64(unit); slot >= 0 && b < int64(f.NumBlocks) {
			return int(b)
		}
		return -1
	}
	own := f.bySlot[f.firstOnDisk(unit):][:f.blocksOnDisk(unit)]
	if i, _ := slices.BinarySearch(own, slot<<32); i < len(own) && own[i]>>32 == slot {
		return int(own[i] & math.MaxUint32)
	}
	return -1
}

// LocalBlocks returns the file blocks resident on disk d, in ascending
// file order.
func (f *File) LocalBlocks(d int) []int {
	out := make([]int, 0, f.blocksOnDisk(d))
	for b := d; b < f.NumBlocks; b += len(f.Disks) {
		out = append(out, b)
	}
	return out
}

// Preload puts the deterministic file image on the disks, without
// simulating any I/O time, to set up read experiments. It moves no
// bytes: it sets one flag, and from then on every file sector that no
// write has stored a page for reads as the image. It stamps nothing, so
// VerifyRange still requires every written range to have been written.
func (f *File) Preload() { f.preloaded = true }

// Fill is the disks' disk.Backing: it writes into dst what the sectors
// from lbn on of disk unit hold while the disk stores no page for them.
// That is the image for file sectors preloaded or written, and zeros
// for unwritten ones and for sectors outside the file.
func (f *File) Fill(unit int, lbn int64, dst []byte) {
	ss := int64(f.BlockSize) / f.sectorsPerBlock
	for len(dst) > 0 {
		s := lbn % f.sectorsPerBlock
		n := min(int64(len(dst)), (f.sectorsPerBlock-s)*ss)
		b := f.blockAt(unit, lbn/f.sectorsPerBlock)
		off := (int64(b)*f.sectorsPerBlock + s) * ss // file offset of dst[0]
		switch {
		case b < 0:
			clear(dst[:n])
		case f.preloaded:
			FillImage(dst[:n], off)
		default:
			for k := int64(0); k < n; k += ss {
				if f.stamped((off + k) / ss) {
					FillImage(dst[k:k+ss], off+k)
				} else {
					clear(dst[k : k+ss])
				}
			}
		}
		dst, lbn = dst[n:], lbn+n/ss
	}
}

// Stamp is the disks' disk.Backing: it stamps every file sector of a
// write of data at sector lbn of disk unit, and reports whether data is
// the image with every sector in the file, so the disk need not store it.
func (f *File) Stamp(unit int, lbn int64, data []byte) bool {
	ss := int64(f.BlockSize) / f.sectorsPerBlock
	same := true
	for len(data) > 0 {
		s := lbn % f.sectorsPerBlock
		n := min(int64(len(data)), (f.sectorsPerBlock-s)*ss)
		b := f.blockAt(unit, lbn/f.sectorsPerBlock)
		off := (int64(b)*f.sectorsPerBlock + s) * ss // file offset of data[0]
		if b < 0 {
			same = false
		} else {
			f.stamp(off/ss, (off+n)/ss)
			same = same && VerifyImage(data[:n], off) < 0
		}
		data, lbn = data[n:], lbn+n/ss
	}
	return same
}

// stamp marks file sectors [s0, s1) written, taking the bitmap on the
// first write.
func (f *File) stamp(s0, s1 int64) {
	if f.stamps == nil {
		f.stamps = make([]uint64, (int64(f.NumBlocks)*f.sectorsPerBlock+63)/64)
	}
	for s := s0; s < s1; s++ {
		f.stamps[s>>6] |= 1 << (s & 63)
	}
}

// stamped reports whether file sector s has been written.
func (f *File) stamped(s int64) bool {
	return f.stamps != nil && f.stamps[s>>6]&(1<<(s&63)) != 0
}

// VerifyRange checks file range [off, off+n) as written to the disks,
// without simulating any time, and returns the file offset of the first
// bad byte, or -1. Every sector of the range must have been written
// (stamped): a preloaded image does not stand in for a lost write.
// Bytes are compared only where a disk stores a page, since elsewhere
// the stamped sectors hold the image. Stored sectors are read one block
// at a time into buf, which must hold one block.
func (f *File) VerifyRange(off, n int64, buf []byte) int64 {
	bs := int64(f.BlockSize)
	ss := bs / f.sectorsPerBlock
	for end := off + n; off < end; {
		b := off / bs
		lo, hi := off-b*bs, min(end-b*bs, bs)
		s0, s1 := lo/ss, (hi+ss-1)/ss
		bad := int64(-1)
		for s := b*f.sectorsPerBlock + s0; s < b*f.sectorsPerBlock+s1; s++ {
			if !f.stamped(s) {
				bad = max(off, s*ss)
				break
			}
		}
		if d, lbn := f.Disks[f.DiskOf(int(b))], f.LBN(int(b)); d.Stored(lbn+s0, s1-s0) {
			d.ReadData(lbn+s0, buf[s0*ss:s1*ss])
			if i := VerifyImage(buf[lo:hi], off); i >= 0 && (bad < 0 || off+int64(i) < bad) {
				bad = off + int64(i)
			}
		}
		if bad >= 0 {
			return bad
		}
		off = (b + 1) * bs
	}
	return -1
}

package pfs

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// The deterministic file image: every byte of the file is a pure function
// of its offset, so any subset of any transfer can be verified against it.
// Each aligned 8-byte word of the image is one 64-bit mix of its word
// index, stored little-endian.
//
// Image bytes [0, n) are materialized once per process in a shared prefix
// (NewFile grows it to cover its file, up to imageCap), so filling or
// checking a range inside it is one memmove or memcmp. A published prefix
// is never written again: growth builds a new slice and publishes it, and
// readers take one atomic load and no lock. Ranges past the prefix fall
// back to hashing, one mix per word.

// imageCap bounds the shared prefix: it covers the paper's 10 MB file.
const imageCap = 16 << 20

var (
	prefix   atomic.Pointer[[]byte] // image bytes [0, len), read-only once published
	prefixMu sync.Mutex             // serializes growth
)

// ensureImage makes the shared prefix cover image bytes [0, n), or
// [0, imageCap) if n is larger, growing it to the next power of two.
func ensureImage(n int64) {
	n = min(n, imageCap)
	if n <= 0 || covered(0, n) != nil {
		return
	}
	prefixMu.Lock()
	defer prefixMu.Unlock()
	if covered(0, n) != nil {
		return
	}
	var old []byte
	if p := prefix.Load(); p != nil {
		old = *p
	}
	b := make([]byte, 1<<bits.Len64(uint64(n-1)))
	copy(b, old)
	fillHash(b[len(old):], int64(len(old)))
	prefix.Store(&b)
}

// covered returns the prefix's bytes for image range [off, off+n), or
// nil if the prefix does not hold all of it.
func covered(off, n int64) []byte {
	p := prefix.Load()
	if p == nil || off < 0 || off+n > int64(len(*p)) {
		return nil
	}
	return (*p)[off : off+n]
}

// FillImage writes the image for the range starting at off into dst: a
// copy from the shared prefix when it covers the range, else the hash.
func FillImage(dst []byte, off int64) {
	if img := covered(off, int64(len(dst))); img != nil {
		copy(dst, img)
		return
	}
	fillHash(dst, off)
}

// VerifyImage reports the first mismatching index (or -1) comparing data
// against the image starting at file offset off. Inside the shared prefix
// a clean range costs one memcmp; a mismatch, or a range past the prefix,
// is located exactly by the word-by-word hash scan.
func VerifyImage(data []byte, off int64) int {
	if img := covered(off, int64(len(data))); img != nil && bytes.Equal(data, img) {
		return -1
	}
	return verifyHash(data, off)
}

// word returns the image word covering file bytes [8w, 8w+8): the w-th
// output of splitmix64, whose finalizer fully avalanches the index.
func word(w int64) uint64 {
	z := (uint64(w) + 1) * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// fillHash writes the image for the range starting at off into dst, one
// hash step per 8 bytes in the aligned middle.
func fillHash(dst []byte, off int64) {
	i := 0
	if r := off & 7; r != 0 {
		i = min(int(8-r), len(dst))
		put(dst[:i], word(off>>3)>>(8*r))
	}
	w := (off + int64(i)) >> 3
	for ; len(dst)-i >= 8; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], word(w))
		w++
	}
	if i < len(dst) {
		put(dst[i:], word(w))
	}
}

// verifyHash is VerifyImage by hashing: it compares word by word and
// scans the first mismatching word byte by byte.
func verifyHash(data []byte, off int64) int {
	i := 0
	if r := off & 7; r != 0 {
		i = min(int(8-r), len(data))
		if j := diff(data[:i], word(off>>3)>>(8*r)); j >= 0 {
			return j
		}
	}
	w := (off + int64(i)) >> 3
	for ; len(data)-i >= 8; i += 8 {
		if v := word(w); binary.LittleEndian.Uint64(data[i:]) != v {
			return i + diff(data[i:i+8], v)
		}
		w++
	}
	if i < len(data) {
		if j := diff(data[i:], word(w)); j >= 0 {
			return i + j
		}
	}
	return -1
}

// put stores the low-order bytes of v into b (at most 8), little-endian.
func put(b []byte, v uint64) {
	for j := range b {
		b[j] = byte(v)
		v >>= 8
	}
}

// diff returns the index of the first byte of b (at most 8) that is not
// the matching little-endian byte of v, or -1.
func diff(b []byte, v uint64) int {
	for j := range b {
		if b[j] != byte(v) {
			return j
		}
		v >>= 8
	}
	return -1
}

package pfs

import "encoding/binary"

// The deterministic file image: every byte of the file is a pure function
// of its offset, so any subset of any transfer can be verified without
// keeping a reference copy. Each aligned 8-byte word of the image is one
// 64-bit mix of its word index, stored little-endian, so filling or
// checking the aligned middle of a range costs one hash step per word.

// word returns the image word covering file bytes [8w, 8w+8): the w-th
// output of splitmix64, whose finalizer fully avalanches the index.
func word(w int64) uint64 {
	z := (uint64(w) + 1) * 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// ByteAt returns the image byte at file offset off.
func ByteAt(off int64) byte {
	return byte(word(off>>3) >> (8 * (off & 7)))
}

// FillImage writes the image for the range starting at off into dst.
func FillImage(dst []byte, off int64) {
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

// VerifyImage reports the first mismatching index (or -1) comparing data
// against the image starting at file offset off.
func VerifyImage(data []byte, off int64) int {
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

package pfs

// The deterministic file image: every byte of the file is a pure function
// of its offset, so any subset of any transfer can be verified without
// keeping a reference copy.

// ByteAt returns the image byte at file offset off.
func ByteAt(off int64) byte {
	v := uint64(off)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	v ^= v >> 29
	return byte(v >> 24)
}

// FillImage writes the image for the range starting at off into dst.
func FillImage(dst []byte, off int64) {
	for i := range dst {
		dst[i] = ByteAt(off + int64(i))
	}
}

// VerifyImage reports the first mismatching index (or -1) comparing data
// against the image starting at file offset off.
func VerifyImage(data []byte, off int64) int {
	for i := range data {
		if data[i] != ByteAt(off+int64(i)) {
			return i
		}
	}
	return -1
}

package pfs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// byteImage is the reference: the image one hashed byte at a time.
func byteImage(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		o := off + int64(i)
		out[i] = byte(word(o>>3) >> (8 * (o & 7)))
	}
	return out
}

// withPrefix replaces the shared prefix with one grown from nothing to
// cover n bytes (none for n = 0) for the rest of the test.
func withPrefix(t *testing.T, n int64) {
	t.Helper()
	saved := prefix.Load()
	t.Cleanup(func() { prefix.Store(saved) })
	prefix.Store(nil)
	ensureImage(n)
}

// paths runs check once with no prefix (the hash) and once with a prefix
// covering every range the checks touch (the copy and the compare).
func paths(t *testing.T, check func(t *testing.T)) {
	for _, n := range []int64{0, 2 << 20} {
		t.Run(fmt.Sprintf("prefix=%d", n), func(t *testing.T) {
			withPrefix(t, n)
			check(t)
		})
	}
}

// checkRange: FillImage agrees with the reference over [off, off+n), the
// fill verifies clean, and every single flipped byte is located exactly.
func checkRange(t *testing.T, off int64, n int) {
	t.Helper()
	got, want := make([]byte, n), byteImage(off, n)
	FillImage(got, off)
	if !bytes.Equal(got, want) {
		t.Fatalf("FillImage(off=%d, n=%d) differs from the hashed reference", off, n)
	}
	if i := VerifyImage(got, off); i != -1 {
		t.Fatalf("clean fill (off=%d, n=%d) flagged at %d", off, n, i)
	}
	for i := range got {
		got[i] ^= 0x5A
		if j := VerifyImage(got, off); j != i {
			t.Fatalf("off=%d n=%d: flipped byte %d reported at %d", off, n, i, j)
		}
		got[i] ^= 0x5A
	}
}

// TestFillImageMatchesByteAt: the fill agrees with the byte-by-byte
// reference at every start alignment and short length, and over a long
// span, through both the hash and the prefix.
func TestFillImageMatchesByteAt(t *testing.T) {
	paths(t, func(t *testing.T) {
		for base := int64(0); base < 16; base++ {
			for n := 0; n <= 40; n++ {
				got, want := make([]byte, n), byteImage(base, n)
				FillImage(got, base)
				if !bytes.Equal(got, want) {
					t.Fatalf("FillImage(off=%d, n=%d) = %x, reference %x", base, n, got, want)
				}
				FillImage(got, 1<<20+base)
				if !bytes.Equal(got, byteImage(1<<20+base, n)) {
					t.Fatalf("FillImage(off=%d, n=%d) differs from the reference", 1<<20+base, n)
				}
			}
		}
		got := make([]byte, 1<<20)
		FillImage(got, 3)
		if !bytes.Equal(got, byteImage(3, 1<<20)) {
			t.Fatal("1 MiB FillImage differs from the reference")
		}
	})
}

// TestVerifyImageLocatesFirstBadByte: a clean fill verifies, and one
// flipped byte in the unaligned head, a middle word or the tail is
// reported at its exact index, through both the hash and the prefix.
func TestVerifyImageLocatesFirstBadByte(t *testing.T) {
	paths(t, func(t *testing.T) {
		for base := int64(0); base < 16; base++ {
			for n := 0; n <= 40; n++ {
				checkRange(t, base, n)
			}
		}
		const n = 1 << 20
		data := make([]byte, n)
		FillImage(data, 5)
		if got := VerifyImage(data, 5); got != -1 {
			t.Fatalf("clean 1 MiB fill flagged at %d", got)
		}
		for _, i := range []int{0, 2, 3, 8, 12345, n/2 + 1, n - 9, n - 1} {
			data[i] ^= 1
			if got := VerifyImage(data, 5); got != i {
				t.Fatalf("1 MiB: flipped byte %d reported at %d", i, got)
			}
			// A later flip does not hide the earlier one.
			data[n-1] ^= 0x80
			if got := VerifyImage(data, 5); got != i {
				t.Fatalf("1 MiB: two flips, first at %d, reported at %d", i, got)
			}
			data[n-1] ^= 0x80
			data[i] ^= 1
		}
	})
}

// TestImagePrefixGrowsToPowerOfTwo: the prefix covers a file with the
// next power of two at or above its size, with no floor, never shrinks,
// and stops at imageCap.
func TestImagePrefixGrowsToPowerOfTwo(t *testing.T) {
	withPrefix(t, 0)
	for _, c := range []struct{ n, want int64 }{
		{1, 1}, {3000, 4096}, {512 << 10, 512 << 10}, {100, 512 << 10},
		{10_000_000, imageCap}, {4 * imageCap, imageCap},
	} {
		ensureImage(c.n)
		if got := int64(len(*prefix.Load())); got != c.want {
			t.Fatalf("after ensureImage(%d): prefix %d bytes, want %d", c.n, got, c.want)
		}
	}
	if !bytes.Equal(*prefix.Load(), byteImage(0, imageCap)) {
		t.Fatal("grown prefix differs from the reference")
	}
}

// TestImageSpansCrossPrefixEnd: ranges that start inside the prefix and
// end past it, at its end and at imageCap, fill and verify exactly.
func TestImageSpansCrossPrefixEnd(t *testing.T) {
	for _, n := range []int64{3000, 4 * imageCap} {
		withPrefix(t, n)
		end := int64(len(*prefix.Load()))
		for off := end - 41; off <= end+1; off++ {
			for _, l := range []int{0, 1, 7, 8, 9, 40, 41} {
				checkRange(t, off, l)
			}
		}
	}
}

// TestImageFastPathAllocatesNothing: inside the prefix, FillImage and
// VerifyImage allocate nothing.
func TestImageFastPathAllocatesNothing(t *testing.T) {
	withPrefix(t, 1<<20)
	buf := make([]byte, 8192)
	if a := testing.AllocsPerRun(100, func() { FillImage(buf, 12345) }); a != 0 {
		t.Fatalf("FillImage: %v allocs per call", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		if VerifyImage(buf, 12345) != -1 {
			t.Fatal("clean fill flagged")
		}
	}); a != 0 {
		t.Fatalf("VerifyImage: %v allocs per call", a)
	}
}

// TestImagePrefixConcurrent: goroutines growing the prefix while others
// fill and verify through it all see the exact image.
func TestImagePrefixConcurrent(t *testing.T) {
	withPrefix(t, 0)
	const span = 256 << 10
	want := byteImage(0, span)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for k := range 64 {
				ensureImage(int64((g*64 + k) * span / 512))
				off := (g*4099 + k*8191) % (span - len(buf))
				n := 1 + (g*131+k*17)%len(buf)
				FillImage(buf[:n], int64(off))
				if !bytes.Equal(buf[:n], want[off:off+n]) {
					t.Errorf("goroutine %d: fill at %d differs", g, off)
					return
				}
				if i := VerifyImage(want[off:off+n], int64(off)); i != -1 {
					t.Errorf("goroutine %d: clean range at %d flagged at %d", g, off, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchImage(b *testing.B, chunk int, op func([]byte, int64)) {
	const span = 1 << 20
	ensureImage(span)
	buf := make([]byte, span)
	FillImage(buf, 0)
	b.SetBytes(span)
	b.ResetTimer()
	for range b.N {
		for off := 0; off < span; off += chunk {
			op(buf[off:off+chunk], int64(off))
		}
	}
}

// BenchmarkFillImage fills 1 MiB of image from the prefix, as one span
// and as 8-byte records (the two message-bound workloads' chunk size).
func BenchmarkFillImage(b *testing.B) {
	b.Run("1MiB", func(b *testing.B) { benchImage(b, 1<<20, FillImage) })
	b.Run("8B", func(b *testing.B) { benchImage(b, 8, FillImage) })
}

// BenchmarkVerifyImage checks 1 MiB of image against the prefix, as one
// span and as 8-byte records.
func BenchmarkVerifyImage(b *testing.B) {
	verify := func(data []byte, off int64) {
		if VerifyImage(data, off) >= 0 {
			b.Fatal("clean image flagged")
		}
	}
	b.Run("1MiB", func(b *testing.B) { benchImage(b, 1<<20, verify) })
	b.Run("8B", func(b *testing.B) { benchImage(b, 8, verify) })
}

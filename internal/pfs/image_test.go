package pfs

import "testing"

// byteImage is the reference: the image one ByteAt at a time.
func byteImage(off int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = ByteAt(off + int64(i))
	}
	return out
}

// TestFillImageMatchesByteAt: the word-wide fill agrees with ByteAt at
// every start alignment and short length, and over a long span.
func TestFillImageMatchesByteAt(t *testing.T) {
	check := func(off int64, n int) {
		t.Helper()
		got, want := make([]byte, n), byteImage(off, n)
		FillImage(got, off)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FillImage(off=%d, n=%d): byte %d = %#x, ByteAt gives %#x", off, n, i, got[i], want[i])
			}
		}
	}
	for base := int64(0); base < 16; base++ {
		for n := 0; n <= 40; n++ {
			check(base, n)
			check(1<<20+base, n)
		}
	}
	check(3, 1<<20)
}

// TestVerifyImageLocatesFirstBadByte: a clean fill verifies, and one
// flipped byte in the unaligned head, a middle word or the tail is
// reported at its exact index.
func TestVerifyImageLocatesFirstBadByte(t *testing.T) {
	for base := int64(0); base < 16; base++ {
		for n := 0; n <= 40; n++ {
			data := make([]byte, n)
			FillImage(data, base)
			if got := VerifyImage(data, base); got != -1 {
				t.Fatalf("clean fill (off=%d, n=%d) flagged at %d", base, n, got)
			}
			for i := range data {
				data[i] ^= 0x5A
				if got := VerifyImage(data, base); got != i {
					t.Fatalf("off=%d n=%d: flipped byte %d reported at %d", base, n, i, got)
				}
				data[i] ^= 0x5A
			}
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
}

func benchImage(b *testing.B, chunk int, op func([]byte, int64)) {
	const span = 1 << 20
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

// BenchmarkFillImage fills 1 MiB of image, as one span and as 8-byte
// records (the two message-bound workloads' chunk size).
func BenchmarkFillImage(b *testing.B) {
	b.Run("1MiB", func(b *testing.B) { benchImage(b, 1<<20, FillImage) })
	b.Run("8B", func(b *testing.B) { benchImage(b, 8, FillImage) })
}

// BenchmarkVerifyImage checks 1 MiB of image, as one span and as 8-byte
// records.
func BenchmarkVerifyImage(b *testing.B) {
	verify := func(data []byte, off int64) {
		if VerifyImage(data, off) >= 0 {
			b.Fatal("clean image flagged")
		}
	}
	b.Run("1MiB", func(b *testing.B) { benchImage(b, 1<<20, verify) })
	b.Run("8B", func(b *testing.B) { benchImage(b, 8, verify) })
}

package disk

import (
	"bytes"
	"testing"

	"ddio/internal/sim"
)

// TestPoolNoCrossRequestAliasing: buffers returned by concurrent reads
// must never share backing storage, and a buffer's contents must stay
// intact while later requests are served — only an explicit Recycle may
// hand its storage to a subsequent request.
func TestPoolNoCrossRequestAliasing(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	pa := make([]byte, 16*512)
	pb := make([]byte, 16*512)
	for i := range pa {
		pa[i] = 0xAA
		pb[i] = 0xBB
	}
	var a, b, c []byte
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, pa)
		d.WriteSync(p, 16, pb)
		d.Flush(p)
		a = d.ReadSync(p, 0, 16)  // held across the next reads, not recycled
		b = d.ReadSync(p, 16, 16) // must not alias a
		c = d.ReadSync(p, 0, 16)  // must not alias a or b
	})
	e.Run()
	if &a[0] == &b[0] || &a[0] == &c[0] || &b[0] == &c[0] {
		t.Fatal("outstanding read buffers share backing storage")
	}
	if !bytes.Equal(a, pa) || !bytes.Equal(c, pa) || !bytes.Equal(b, pb) {
		t.Fatal("read contents corrupted while other requests were in flight")
	}
}

// TestPoolRecycleReusesBuffer: a recycled buffer is handed back to the
// next same-size request (LIFO), with correct fresh contents, and the
// reuse shows up in the pool's reuse count.
func TestPoolRecycleReusesBuffer(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	payload := make([]byte, 16*512)
	for i := range payload {
		payload[i] = byte(i)
	}
	var first, second []byte
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, payload)
		d.Flush(p)
		first = d.ReadSync(p, 0, 16)
		d.Recycle(first)
		second = d.ReadSync(p, 0, 16)
	})
	e.Run()
	if &first[0] != &second[0] {
		t.Fatal("recycled buffer was not reused by the next same-size read")
	}
	if !bytes.Equal(second, payload) {
		t.Fatal("reused buffer carries wrong contents")
	}
	if d.pool.reuses == 0 {
		t.Fatal("pool reports no reuse")
	}
}

// TestPoolRecycledBufferReadsZeroForUnwritten: ReadData must clear the
// unwritten sectors of a recycled (stale) buffer, preserving the
// "unwritten sectors read as zeros" contract.
func TestPoolRecycledBufferReadsZeroForUnwritten(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	dirty := make([]byte, 16*512)
	for i := range dirty {
		dirty[i] = 0xFF
	}
	var got []byte
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, dirty)
		d.Flush(p)
		buf := d.ReadSync(p, 0, 16) // buffer now full of 0xFF
		d.Recycle(buf)
		got = d.ReadSync(p, 5000, 16) // unwritten range, same size
	})
	e.Run()
	for _, v := range got {
		if v != 0 {
			t.Fatal("unwritten sectors leaked stale bytes from a recycled buffer")
		}
	}
}

// TestWriteDataRecyclesOverwrittenBacking: overwriting every sector of a
// previous WriteData returns its backing array to the free list, so a
// workload that rewrites blocks in place reaches a steady state with no
// new allocation (reuses grow write over write).
func TestWriteDataRecyclesOverwrittenBacking(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	payload := make([]byte, 16*512)
	e.Go("t", func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			for i := range payload {
				payload[i] = byte(round)
			}
			d.WriteSync(p, 0, payload)
			d.Flush(p)
		}
	})
	e.Run()
	if d.pool.reuses < 6 {
		t.Fatalf("rewrites reused only %d backing arrays, want >= 6", d.pool.reuses)
	}
	var got []byte
	e.Go("t2", func(p *sim.Proc) { got = d.ReadSync(p, 0, 16) })
	e.Run()
	for _, v := range got {
		if v != 7 {
			t.Fatal("latest write's contents lost across backing reuse")
		}
	}
}

// TestPartialOverwriteKeepsOldBackingAlive: overwriting only some
// sectors of an earlier write must not recycle the shared backing array
// while other sectors still reference it.
func TestPartialOverwriteKeepsOldBackingAlive(t *testing.T) {
	e, d := newTestDisk(t, HP97560())
	oldData := make([]byte, 16*512)
	for i := range oldData {
		oldData[i] = 0x11
	}
	newData := make([]byte, 4*512)
	for i := range newData {
		newData[i] = 0x22
	}
	var got []byte
	e.Go("t", func(p *sim.Proc) {
		d.WriteSync(p, 0, oldData)
		d.Flush(p)
		d.WriteSync(p, 0, newData) // overwrite first 4 of 16 sectors
		d.Flush(p)
		got = d.ReadSync(p, 0, 16)
	})
	e.Run()
	for i, v := range got {
		want := byte(0x11)
		if i < 4*512 {
			want = 0x22
		}
		if v != want {
			t.Fatalf("byte %d = %#x, want %#x", i, v, want)
		}
	}
}

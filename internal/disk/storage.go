package disk

// Byte storage behind the mechanical model. Contents are kept per sector
// so experiments can verify end-to-end data integrity; unwritten sectors
// read as zeros.
//
// Both directions run over the disk's buffer free-list (see pool.go):
// reads fill a recycled transfer buffer, and writes keep their backing
// array alive only while at least one of its sectors is still current —
// overwriting the last live sector of an old write returns its array to
// the free list.

// sector is one stored sector: its bytes plus a reference to the write
// whose backing array holds them (for free-list accounting).
type sector struct {
	data []byte
	src  *wbuf
}

// wbuf is the backing array of one WriteData call, reference-counted by
// the number of its sectors still present in the storage map.
type wbuf struct {
	buf  []byte
	live int
}

// WriteData stores bytes at the given sector without simulating any time
// (used both by the write path and to preload file images before a run).
// The data is copied; the caller keeps ownership of data.
func (d *Disk) WriteData(lbn int64, data []byte) {
	ss := d.Spec.SectorSize
	if len(data)%ss != 0 {
		panic("disk: WriteData length not sector-aligned")
	}
	// One pooled backing array per call, subsliced per sector. Stored
	// sectors are never mutated in place (a later write replaces the map
	// entry), so sharing the backing array between sectors is safe.
	buf := d.pool.Get(len(data))
	copy(buf, data)
	src := &wbuf{buf: buf, live: len(data) / ss}
	for off := 0; off < len(data); off += ss {
		l := lbn + int64(off/ss)
		if old, ok := d.storage[l]; ok && old.src != nil {
			old.src.live--
			if old.src.live == 0 {
				d.pool.Put(old.src.buf)
			}
		}
		d.storage[l] = sector{data: buf[off : off+ss : off+ss], src: src}
	}
}

// ReadData returns the bytes in sectors [lbn, lbn+count) in a transfer
// buffer drawn from the disk's free list. The buffer is owned by the
// caller; pass it to Recycle once its contents are no longer referenced
// to keep the free list warm (dropping it instead is safe but allocates).
func (d *Disk) ReadData(lbn, count int64) []byte {
	ss := d.Spec.SectorSize
	out := d.pool.Get(int(count) * ss)
	for i := int64(0); i < count; i++ {
		dst := out[int(i)*ss : int(i+1)*ss]
		if s, ok := d.storage[lbn+i]; ok {
			copy(dst, s.data)
		} else {
			clear(dst) // pooled buffers carry stale bytes
		}
	}
	return out
}

// Buffer returns an n-byte scratch buffer from the disk's free list with
// unspecified contents, for callers staging data they will hand to
// WriteData. Pass it to Recycle when done.
func (d *Disk) Buffer(n int) []byte { return d.pool.Get(n) }

// Recycle returns a buffer obtained from ReadData, ReadSync, or Buffer
// to the disk's free list. The caller must not retain any reference into
// the buffer (including subslices) afterwards; a recycled buffer is
// reused verbatim by a later read or write.
func (d *Disk) Recycle(buf []byte) { d.pool.Put(buf) }

package disk

import "ddio/internal/sim"

// Byte storage behind the mechanical model, kept so experiments can
// verify end-to-end data integrity. The caller owns every buffer: reads
// fill the caller's destination, writes copy the caller's bytes in.
//
// The store is a sparse map of fixed-size pages, each taken zeroed from
// the simulator's slab list (sim.GetSlab) on the first write that
// touches it and written in place afterwards, so unwritten sectors read
// as zeros and a rewrite allocates nothing. The disk owns its pages
// until ReleaseData hands them back to the list.

// pageSectors is the number of sectors per storage page: one default
// 8 KiB file block of 512-byte sectors, so a block-aligned block write
// touches exactly one page.
const pageSectors = 16

// WriteData stores data at sector lbn without simulating any time (used
// both by the write path and to preload file images before a run). The
// bytes are copied; the caller keeps ownership of data.
func (d *Disk) WriteData(lbn int64, data []byte) {
	off, ps := d.byteSpan(lbn, len(data))
	for len(data) > 0 {
		page := d.pages[off/ps]
		if page == nil {
			page = sim.GetSlab(int(ps))
			d.pages[off/ps] = page
		}
		n := copy(page[off%ps:], data)
		data = data[n:]
		off += int64(n)
	}
}

// ReadData fills dst with the bytes stored from sector lbn on, without
// simulating any time.
func (d *Disk) ReadData(lbn int64, dst []byte) {
	off, ps := d.byteSpan(lbn, len(dst))
	for len(dst) > 0 {
		n := min(int64(len(dst)), ps-off%ps)
		if page := d.pages[off/ps]; page != nil {
			copy(dst[:n], page[off%ps:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// ReleaseData returns every stored page to the slab list and forgets
// the disk's contents: afterwards every sector reads as zeros. Call it
// once the run's bytes are no longer needed (after verification).
func (d *Disk) ReleaseData() {
	for _, page := range d.pages {
		sim.PutSlab(page)
	}
	clear(d.pages)
}

// byteSpan returns the byte offset of sector lbn and the page size,
// checking that n bytes are whole sectors.
func (d *Disk) byteSpan(lbn int64, n int) (off, pageSize int64) {
	ss := d.Spec.SectorSize
	if n%ss != 0 {
		panic("disk: data length not sector-aligned")
	}
	return lbn * int64(ss), int64(pageSectors * ss)
}

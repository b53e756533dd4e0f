package disk

import "ddio/internal/sim"

// Byte storage behind the mechanical model, kept so experiments can
// verify end-to-end data integrity. The caller owns every buffer: reads
// fill the caller's destination, and writes keep no reference to the
// caller's bytes.
//
// A disk that holds a file is backed by it (SetBacking). The backing
// knows which file offset each sector maps to, the deterministic image
// of those bytes, and which file sectors have been written: every write
// stamps its sectors there. A write whose bytes equal the image does
// nothing else. Bytes are stored only where they differ from the image
// or lie outside the file: in a sparse map of fixed-size pages, each
// taken from the simulator's slab list (sim.GetSlab) on the first write
// that stores into it, filled with what its sectors held until then
// (image or zeros), and written in place afterwards. A read returns a
// stored page where there is one and the backing's bytes elsewhere. So a
// run whose writes all carry the image stores nothing, and a write that
// never reached the disk leaves its sectors unstamped, which
// verification reports even where the image was preloaded. Without a
// backing, every sector outside a stored page reads as zeros.
//
// The disk owns its pages until ReleaseData hands them back to the list
// and drops the backing.

// pageSectors is the number of sectors per storage page: one default
// 8 KiB file block of 512-byte sectors, so a block-aligned block write
// touches exactly one page.
const pageSectors = 16

// Backing is what the sectors no page stores hold, and the record of
// which were written. pfs.File implements it for the disks of its stripe
// set; unit is the disk's index there.
type Backing interface {
	// Fill writes into dst what the sectors from lbn on hold while no
	// page stores them.
	Fill(unit int, lbn int64, dst []byte)
	// Stamp records a write of data at sector lbn and reports whether
	// the disk may skip storing it: data equals the image and every
	// sector lies in the file.
	Stamp(unit int, lbn int64, data []byte) bool
}

// SetBacking backs the disk's unstored sectors with b, as disk unit of
// b's stripe set. Call it before the run writes anything.
func (d *Disk) SetBacking(b Backing, unit int) { d.backing, d.unit = b, unit }

// WriteData stores data at sector lbn without simulating any time (the
// write path's copy into the drive). The caller keeps ownership of data.
func (d *Disk) WriteData(lbn int64, data []byte) {
	off, ps := d.byteSpan(lbn, len(data))
	ss := int64(d.Spec.SectorSize)
	for len(data) > 0 {
		n := min(int64(len(data)), ps-off%ps)
		same := d.backing != nil && d.backing.Stamp(d.unit, off/ss, data[:n])
		page := d.pages[off/ps]
		if page == nil && !same {
			page = sim.GetSlab(int(ps))
			if d.backing != nil {
				d.backing.Fill(d.unit, off/ps*pageSectors, page)
			}
			if d.pages == nil {
				d.pages = make(map[int64][]byte)
			}
			d.pages[off/ps] = page
		}
		if page != nil {
			copy(page[off%ps:], data[:n])
		}
		data = data[n:]
		off += n
	}
}

// ReadData fills dst with the bytes from sector lbn on, without
// simulating any time.
func (d *Disk) ReadData(lbn int64, dst []byte) {
	off, ps := d.byteSpan(lbn, len(dst))
	ss := int64(d.Spec.SectorSize)
	for len(dst) > 0 {
		n := min(int64(len(dst)), ps-off%ps)
		if page := d.pages[off/ps]; page != nil {
			copy(dst[:n], page[off%ps:])
		} else if d.backing != nil {
			d.backing.Fill(d.unit, off/ss, dst[:n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// Stored reports whether a page stores any of sectors [lbn, lbn+count).
func (d *Disk) Stored(lbn, count int64) bool {
	if len(d.pages) == 0 || count <= 0 {
		return false
	}
	for p := lbn / pageSectors; p <= (lbn+count-1)/pageSectors; p++ {
		if d.pages[p] != nil {
			return true
		}
	}
	return false
}

// ReleaseData returns every stored page to the slab list and drops the
// backing: afterwards every sector reads as zeros. Call it once the
// run's bytes are no longer needed (after verification).
func (d *Disk) ReleaseData() {
	for _, page := range d.pages {
		sim.PutSlab(page)
	}
	d.pages, d.backing = nil, nil
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

package tcfs

import (
	"math/bits"

	"ddio/internal/sim"
)

// bufState tracks the lifecycle of one cache buffer.
type bufState int

const (
	bufFree bufState = iota
	bufReading
	bufValid
)

// buffer is one block-sized cache frame.
type buffer struct {
	block   int      // file block held, -1 when free
	data    []byte   // taken from the slab list on the frame's first use
	written []uint64 // dirty bitmap, one bit per byte (write-behind); kept with the frame
	dirty   int      // count of dirty bytes, the bitmap's population
	// partial marks a frame installed by a write: only its written bytes
	// are valid until fill merges the disk block under the rest.
	partial  bool
	state    bufState
	flushing bool
	pins     int
	lastUse  sim.Time
	// scratch receives fill's disk read and then the flush snapshot (a
	// pinned writer may still be copying into data while a flush runs).
	// Taken on first use; fill and flush never overlap on a frame.
	scratch []byte
}

// reset frees the frame, keeping its byte buffers for the next block.
func (b *buffer) reset() {
	b.block = -1
	clear(b.written)
	b.dirty = 0
	b.partial = false
	b.state = bufFree
	b.flushing = false
	b.pins = 0
}

// blockCache is an IOP's block cache: a fixed pool of buffers indexed by
// file block, LRU-replaced, shared by all concurrently running handler
// threads of that IOP. Blocking (waiting for a fill, a flush, or a free
// frame) parks the handler on the cache's condition variables.
type blockCache struct {
	s         *Server
	blockSize int
	bufs      []*buffer
	index     map[int]*buffer
	avail     *sim.Cond // a frame may have become reclaimable
	changed   *sim.Cond // some buffer changed state (fill/flush done)
}

func newBlockCache(s *Server, frames, blockSize int) *blockCache {
	c := &blockCache{
		s:         s,
		blockSize: blockSize,
		index:     make(map[int]*buffer),
		avail:     sim.NewCond(s.m.Eng, "tc-cache-avail:"+s.node.String()),
		changed:   sim.NewCond(s.m.Eng, "tc-cache-state:"+s.node.String()),
	}
	if frames < 2 {
		frames = 2
	}
	c.bufs = make([]*buffer, frames)
	for i := range c.bufs {
		c.bufs[i] = &buffer{block: -1}
	}
	return c
}

// lookup returns the buffer holding block, or nil.
func (c *blockCache) lookup(block int) *buffer { return c.index[block] }

// noteOccupancy traces the cache's occupied-frame count; called after
// every install or eviction so the trace carries a step function of
// buffer occupancy over time.
func (c *blockCache) noteOccupancy(t sim.Time) {
	c.s.rec.Buffer(c.s.traceName, int64(t), len(c.index), len(c.bufs))
}

// tryRead returns block's frame, pinned, if a read can take it at once:
// the frame is cached, not being read, and holds every byte (it is not a
// partial frame that needs a fill or is being flushed). Otherwise it
// returns nil and changes nothing. getRead starts with it, so handlers
// probing in event context and the blocking path share one hit test.
func (c *blockCache) tryRead(now sim.Time, block int) *buffer {
	b := c.index[block]
	if b == nil || b.state == bufReading || b.partial && (b.flushing || b.dirty < c.blockSize) {
		return nil
	}
	b.pins++
	b.lastUse = now
	c.s.m2.CacheHits++
	return b
}

// getRead returns a pinned, valid buffer holding block, reading it from
// disk on a miss or to fill a partial frame. The caller must unpin.
func (c *blockCache) getRead(p *sim.Proc, block int) *buffer {
	if b := c.tryRead(p.Now(), block); b != nil {
		return b
	}
	for {
		if b := c.index[block]; b != nil {
			b.pins++
			for b.state == bufReading || b.partial && b.flushing {
				c.changed.Wait(p)
			}
			if b.block == block && b.state == bufValid {
				b.lastUse = p.Now()
				if b.partial && b.dirty < c.blockSize {
					c.s.m2.CacheMiss++
					b.state = bufReading
					c.fill(p, b)
					b.state = bufValid
					c.changed.Broadcast()
					return b
				}
				c.s.m2.CacheHits++
				return b
			}
			// The frame was stolen while we waited; retry.
			b.pins--
			continue
		}
		b := c.acquire(p)
		if c.index[block] != nil {
			// Someone else started the same fill while we acquired.
			c.release(b)
			continue
		}
		b.block = block
		b.state = bufReading
		b.pins++
		c.index[block] = b
		c.noteOccupancy(p.Now())
		c.s.m2.CacheMiss++
		if !c.s.blockIO(p, false, block, b.data) {
			clear(b.data) // lost: the block reads as zeros
		}
		b.state = bufValid
		b.lastUse = p.Now()
		c.changed.Broadcast()
		return b
	}
}

// tryWrite returns block's frame, pinned, if a write can take it at
// once: the frame is cached and neither being read nor flushed.
// Otherwise it returns nil and changes nothing; getWrite starts with it.
func (c *blockCache) tryWrite(now sim.Time, block int) *buffer {
	b := c.index[block]
	if b == nil || b.state == bufReading || b.flushing {
		return nil
	}
	b.pins++
	b.lastUse = now
	c.s.m2.CacheHits++
	c.bitmap(b)
	return b
}

// getWrite returns a pinned buffer for writing into block. On a miss no
// disk read happens: a partial frame with a dirty bitmap is installed,
// filled from disk by the first read or flush that needs its unwritten
// bytes.
func (c *blockCache) getWrite(p *sim.Proc, block int) *buffer {
	if b := c.tryWrite(p.Now(), block); b != nil {
		return b
	}
	for {
		if b := c.index[block]; b != nil {
			b.pins++
			for b.state == bufReading || b.flushing {
				c.changed.Wait(p)
			}
			if b.block == block && b.state == bufValid {
				b.lastUse = p.Now()
				c.s.m2.CacheHits++
				c.bitmap(b)
				return b
			}
			b.pins--
			continue
		}
		b := c.acquire(p)
		if c.index[block] != nil {
			c.release(b)
			continue
		}
		b.block = block
		b.state = bufValid
		b.partial = true
		c.bitmap(b)
		b.pins++
		b.lastUse = p.Now()
		c.index[block] = b
		c.noteOccupancy(p.Now())
		c.s.m2.CacheMiss++
		return b
	}
}

// bitmap gives the frame its dirty bitmap on its first write; the frame
// keeps it, cleared, from then on.
func (c *blockCache) bitmap(b *buffer) {
	if b.written == nil {
		b.written = make([]uint64, (c.blockSize+63)/64)
	}
}

// markWritten sets the bitmap over bytes [off, off+n) and counts the
// newly set ones as dirty.
func (b *buffer) markWritten(off, n int) {
	for i, end := off, off+n; i < end; {
		w, lo := i/64, i%64
		hi := min(end-w*64, 64)
		mask := ^uint64(0) >> (64 - (hi - lo)) << lo
		b.dirty += bits.OnesCount64(mask &^ b.written[w])
		b.written[w] |= mask
		i = w*64 + hi
	}
}

// unpin releases a pinned buffer.
func (c *blockCache) unpin(b *buffer) {
	b.pins--
	if b.pins == 0 {
		c.avail.Signal()
	}
}

// release returns an unused acquired frame to the free pool.
func (c *blockCache) release(b *buffer) {
	b.reset()
	c.avail.Signal()
}

// acquire obtains a free frame, evicting the least-recently-used
// unpinned buffer (flushing it first if dirty). It blocks when every
// frame is pinned or in flight.
func (c *blockCache) acquire(p *sim.Proc) *buffer {
	for {
		var victim *buffer
		for _, b := range c.bufs {
			if b.state == bufFree {
				victim = b
				break
			}
		}
		if victim == nil {
			for _, b := range c.bufs {
				if b.state == bufValid && b.pins == 0 && !b.flushing &&
					(victim == nil || b.lastUse < victim.lastUse) {
					victim = b
				}
			}
		}
		if victim == nil {
			c.avail.Wait(p)
			continue
		}
		if victim.state == bufValid {
			if victim.dirty > 0 {
				c.flush(p, victim)
				continue // state changed while flushing; re-scan
			}
			delete(c.index, victim.block)
			c.noteOccupancy(p.Now())
			victim.reset()
		}
		if victim.data == nil {
			victim.data = sim.GetSlab(c.blockSize)
		}
		victim.state = bufReading // reserve the frame for the caller
		return victim
	}
}

// fill merges the block's disk contents under the frame's unwritten
// bytes, completing a partial frame. The bitmap is read after the disk
// read returns, so bytes written meanwhile survive. A lost read merges
// zeros.
func (c *blockCache) fill(p *sim.Proc, b *buffer) {
	if !c.s.blockIO(p, false, b.block, c.scratch(b)) {
		clear(b.scratch)
	}
	for w, m := range b.written {
		i := w * 64
		if m == 0 {
			copy(b.data[i:min(i+64, len(b.data))], b.scratch[i:])
		} else {
			for u := ^m; u != 0; u &= u - 1 { // the word's unwritten bytes
				j := i + bits.TrailingZeros64(u)
				if j >= len(b.data) {
					break
				}
				b.data[j] = b.scratch[j]
			}
		}
	}
	b.partial = false
}

// scratch returns the frame's scratch buffer, taking it on first use.
func (c *blockCache) scratch(b *buffer) []byte {
	if b.scratch == nil {
		b.scratch = sim.GetSlab(c.blockSize)
	}
	return b.scratch
}

// flush writes a dirty buffer to disk, merging with existing disk
// content first (read-modify-write) when the block was only partially
// overwritten.
func (c *blockCache) flush(p *sim.Proc, b *buffer) {
	b.flushing = true
	for b.state == bufReading { // a read-side fill owns the scratch
		c.changed.Wait(p)
	}
	c.s.m2.Flushes++
	if b.dirty < c.blockSize {
		c.s.m2.PartialRMW++
		c.fill(p, b)
	}
	b.partial = false
	copy(c.scratch(b), b.data)
	dirtyAtSubmit := b.dirty
	c.s.blockIO(p, true, b.block, b.scratch)
	// Bytes written while the flush was in flight stay dirty.
	if dirtyAtSubmit == b.dirty {
		b.dirty = 0
		clear(b.written)
	}
	b.flushing = false
	c.changed.Broadcast()
	c.avail.Signal()
}

// flushAll writes out every dirty buffer (used by Sync).
func (c *blockCache) flushAll(p *sim.Proc) {
	for {
		var b *buffer
		for _, cand := range c.bufs {
			if cand.state == bufValid && cand.dirty > 0 && !cand.flushing {
				b = cand
				break
			}
		}
		if b == nil {
			// Wait out any flushes in flight started by other handlers.
			busy := false
			for _, cand := range c.bufs {
				if cand.flushing || cand.state == bufReading {
					busy = true
					break
				}
			}
			if !busy {
				return
			}
			c.changed.Wait(p)
			continue
		}
		c.flush(p, b)
	}
}

// contains reports whether block is cached or being read (prefetch
// planning).
func (c *blockCache) contains(block int) bool { return c.index[block] != nil }

package disk

// Pool is a plain free-list of byte buffers, keyed by exact length. The
// simulation engine is single-threaded per run, so no sync.Pool (or any
// locking) is needed and reuse order is deterministic: a Put buffer is
// handed back LIFO to the next Get of the same size. Buffers returned
// by Get carry unspecified contents; callers overwrite or clear what
// they read. The zero value is ready to use. Each Disk owns one for its
// transfer buffers; other per-engine owners (e.g. a tcfs server's reply
// payloads) may embed their own.
type Pool struct {
	free   map[int][][]byte
	reuses int64 // buffers handed out from the free list rather than allocated
}

// Get returns a buffer of exactly n bytes, reusing a recycled one when
// available.
func (bp *Pool) Get(n int) []byte {
	if s := bp.free[n]; len(s) > 0 {
		b := s[len(s)-1]
		s[len(s)-1] = nil
		bp.free[n] = s[:len(s)-1]
		bp.reuses++
		return b
	}
	return make([]byte, n)
}

// Put returns a buffer to the free list. The caller must not retain any
// reference into b (including subslices) after putting it.
func (bp *Pool) Put(b []byte) {
	if len(b) == 0 {
		return
	}
	if bp.free == nil {
		bp.free = make(map[int][][]byte)
	}
	bp.free[len(b)] = append(bp.free[len(b)], b)
}

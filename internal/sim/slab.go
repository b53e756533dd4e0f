package sim

import (
	"math/bits"
	"sync"
)

// Slabs: a process-wide free list of byte buffers for the large
// per-run allocations — CP memory, disk storage pages, file-system
// block buffers — that every run of a sweep would otherwise make again
// from nothing. Runs on
// concurrent engines share it, so a worker's next cell starts from the
// slabs its previous cell released.
//
// The list is bounded three ways, because a free list that outlives
// the work it serves only inflates the process's resident memory:
//   - it holds at most slabCap bytes in total;
//   - when a release would exceed the cap it drops the largest slabs
//     first, so a few wide cells (whole-file copies per CP) cannot
//     crowd out the small slabs most cells reuse;
//   - it is emptied when its last holder lets go, so an idle process
//     keeps nothing, and a slab released while nothing holds it is
//     dropped. Holders are open Engines and running sweeps (HoldSlabs):
//     a sweep keeps the list across its cells even when, with one
//     worker, each cell's engine is the only one open. Outside a sweep
//     a sequential loop of lone runs reuses nothing: each run's engine
//     is the last holder when it closes.
//
// Slabs are bucketed by capacity: bucket k holds slabs whose capacity
// is in [2^k, 2^(k+1)). GetSlab(n) takes the top slab of n's own bucket
// when it fits, else one from the bucket above, where every slab fits;
// a miss allocates exactly n bytes. A slab's contents are cleared when
// it is handed out, exactly as make would return them, so no run ever
// sees bytes an earlier run left behind.
//
// slabCap is a measured value (PERF.md pass 13). It holds what two
// workers' Figure 3b cells release. Smaller caps gave back much of the
// speed-up, and an uncapped list raised the sweep's resident memory by
// about a third.
const slabCap = 8 << 20

// slabList is the free list; slabs is the process's one instance.
type slabList struct {
	mu      sync.Mutex
	engines int // engines created and not yet closed
	sweeps  int // HoldSlabs calls not yet released
	bytes   int // capacity retained in free
	free    [bits.UintSize][][]byte
}

var slabs = new(slabList)

// GetSlab returns a zeroed byte slice of length n, reusing a released
// slab when one fits. Its capacity may exceed n; the bytes beyond n are
// not cleared and must not be used.
func GetSlab(n int) []byte { return slabs.get(n) }

// PutSlab releases b for reuse by a later GetSlab. The caller must hold
// no other reference to b. Slabs released while nothing holds the list,
// and slabs larger than the cap, are dropped.
func PutSlab(b []byte) { slabs.put(b) }

// HoldSlabs makes the caller a holder of the slab list, exactly as an
// open Engine is, until the matching ReleaseSlabs: a sweep holds it so
// that every cell can reuse what the cells before it released.
func HoldSlabs() { slabs.count(0, 1) }

// ReleaseSlabs ends one HoldSlabs; the list empties if that was its last
// holder.
func ReleaseSlabs() { slabs.count(0, -1) }

func (l *slabList) get(n int) []byte {
	if n <= 0 {
		return make([]byte, n)
	}
	l.mu.Lock()
	// n's own bucket if its top slab fits (a run repeating its sizes
	// finds them there), else the next bucket up, where every slab fits.
	for k := bits.Len(uint(n)) - 1; k <= bits.Len(uint(n-1)); k++ {
		s := l.free[k]
		if len(s) == 0 || cap(s[len(s)-1]) < n {
			continue
		}
		b := s[len(s)-1]
		s[len(s)-1] = nil
		l.free[k] = s[:len(s)-1]
		l.bytes -= cap(b)
		l.mu.Unlock()
		b = b[:n]
		clear(b)
		return b
	}
	l.mu.Unlock()
	return make([]byte, n)
}

func (l *slabList) put(b []byte) {
	c := cap(b)
	if c == 0 || c > slabCap {
		return
	}
	k := bits.Len(uint(c)) - 1 // 2^k <= c < 2^(k+1)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.engines+l.sweeps == 0 {
		return
	}
	for l.bytes+c > slabCap {
		j := len(l.free) - 1
		for len(l.free[j]) == 0 {
			j--
		}
		if j <= k { // b is among the largest: drop it instead
			return
		}
		s := l.free[j]
		l.bytes -= cap(s[len(s)-1])
		s[len(s)-1] = nil
		l.free[j] = s[:len(s)-1]
	}
	l.free[k] = append(l.free[k], b[:c])
	l.bytes += c
}

// count adds to the open engines and the running sweeps, and empties
// the list when neither is left.
func (l *slabList) count(engines, sweeps int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.engines += engines
	l.sweeps += sweeps
	if l.engines+l.sweeps == 0 {
		clear(l.free[:])
		l.bytes = 0
	}
}

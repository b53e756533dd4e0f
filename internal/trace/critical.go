package trace

// Critical-path decomposition: split each file-system request's
// server-side latency window into where the time went. The spans are
// already in the trace as typed events — disk service intervals, retry
// backoffs, request-handler busy intervals — so the decomposition is a
// pure derivation, computed per request by intersecting its [start,
// end] window with the merged activity unions in priority order:
//
//	Disk    — some disk was servicing a media transfer
//	Retry   — else the owning server sat in a bounded-retry backoff
//	Service — else one of the server's handler threads was busy
//	Queue   — else nothing was moving: the request waited in a queue
//
// The four buckets partition the window exactly (Disk + Retry +
// Service + Queue == End − Start), pinned by the critical-path golden
// test. Shared resources are attributed to every request concurrently
// in flight — the decomposition answers "what was the system doing
// while this request waited", not "which microsecond belonged to whom".

import (
	"sort"
	"strings"
)

// CriticalPath is one request's latency decomposition, in virtual-time
// nanoseconds. Node and ID identify the request as its KindReqEnd event
// does.
type CriticalPath struct {
	Node  string `json:"node"`
	ID    int64  `json:"id"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`

	Disk    int64 `json:"disk_ns"`    // disk media transfers in progress
	Retry   int64 `json:"retry_ns"`   // fault-recovery backoff at the server
	Service int64 `json:"service_ns"` // server pool executing (no disk active)
	Queue   int64 `json:"queue_ns"`   // nothing active: queueing/waiting
}

// intervalSet is a sorted, non-overlapping interval union.
type intervalSet []Interval

// mergeIntervals sorts ivs and merges overlapping/adjacent intervals
// into a canonical union. The input slice is reused.
func mergeIntervals(ivs []Interval) intervalSet {
	if len(ivs) == 0 {
		return nil
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].Start != ivs[j].Start {
			return ivs[i].Start < ivs[j].Start
		}
		return ivs[i].End < ivs[j].End
	})
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// covers reports whether time t falls inside the union (half-open
// [Start, End) so adjacent intervals don't double-cover an edge).
func (s intervalSet) covers(t int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i].End > t })
	return i < len(s) && s[i].Start <= t
}

// edgesWithin appends the union's interval edges that fall strictly
// inside (lo, hi) to dst.
func (s intervalSet) edgesWithin(lo, hi int64, dst []int64) []int64 {
	first := sort.Search(len(s), func(i int) bool { return s[i].End > lo })
	for _, iv := range s[first:] {
		if iv.Start >= hi {
			break
		}
		if iv.Start > lo && iv.Start < hi {
			dst = append(dst, iv.Start)
		}
		if iv.End > lo && iv.End < hi {
			dst = append(dst, iv.End)
		}
	}
	return dst
}

// poolNode maps a service-pool name to the server node it belongs to:
// pools are named "<kind>:<node>" ("tc-svc:IOP0", "dd-work:IOP3"), and
// request events carry the bare node name.
func poolNode(pool string) string {
	if i := strings.LastIndexByte(pool, ':'); i >= 0 {
		return pool[i+1:]
	}
	return pool
}

// CriticalPaths decomposes every completed request (KindReqEnd) in the
// trace, in trace order. The result is deterministic: a pure function
// of the (deterministic) event stream.
func (r *Recorder) CriticalPaths() []CriticalPath {
	if r == nil {
		return nil
	}
	var diskIvs []Interval
	retryIvs := map[string][]Interval{}
	poolIvs := map[string][]Interval{}
	nReq := 0
	for _, e := range r.Events() {
		switch e.Kind {
		case KindDiskService:
			diskIvs = append(diskIvs, Interval{Start: e.T, End: e.End})
		case KindRetry:
			retryIvs[e.Node] = append(retryIvs[e.Node], Interval{Start: e.T, End: e.End})
		case KindPoolBusy:
			n := poolNode(e.Node)
			poolIvs[n] = append(poolIvs[n], Interval{Start: e.T, End: e.End})
		case KindReqEnd:
			nReq++
		}
	}
	if nReq == 0 {
		return nil
	}
	disk := mergeIntervals(diskIvs)
	retry := make(map[string]intervalSet, len(retryIvs))
	for n, ivs := range retryIvs {
		retry[n] = mergeIntervals(ivs)
	}
	pool := make(map[string]intervalSet, len(poolIvs))
	for n, ivs := range poolIvs {
		pool[n] = mergeIntervals(ivs)
	}

	out := make([]CriticalPath, 0, nReq)
	var edges []int64
	for _, e := range r.Events() {
		if e.Kind != KindReqEnd {
			continue
		}
		cp := CriticalPath{Node: e.Node, ID: e.ID, Start: e.T, End: e.End}
		if e.End > e.T {
			// Boundary sweep: cut the window at every union edge inside
			// it, then classify each elementary segment by its midpoint
			// in priority order. Segments partition the window, so the
			// four buckets sum to the latency exactly.
			edges = edges[:0]
			edges = append(edges, e.T, e.End)
			edges = disk.edgesWithin(e.T, e.End, edges)
			edges = retry[e.Node].edgesWithin(e.T, e.End, edges)
			edges = pool[e.Node].edgesWithin(e.T, e.End, edges)
			sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
			for i := 1; i < len(edges); i++ {
				a, b := edges[i-1], edges[i]
				if b <= a {
					continue
				}
				mid := a + (b-a)/2
				switch {
				case disk.covers(mid):
					cp.Disk += b - a
				case retry[e.Node].covers(mid):
					cp.Retry += b - a
				case pool[e.Node].covers(mid):
					cp.Service += b - a
				default:
					cp.Queue += b - a
				}
			}
		}
		out = append(out, cp)
	}
	return out
}

package trace

// Derived views over a raw trace: per-disk busy timelines, utilization
// and bandwidth time-series, request-latency statistics, and per-link
// message totals. All derivations are deterministic — component order
// is first appearance in the (deterministic) trace — so plots and
// golden files built on them are stable run-to-run.

import (
	"ddio/internal/stats"
)

// Interval is one busy span [Start, End] in virtual-time nanoseconds.
type Interval struct {
	Start, End int64
}

// Timeline is one component's busy intervals in trace order, plus its
// utilization over the observed span.
type Timeline struct {
	Name string     // component name ("d0", ...)
	Busy []Interval // non-overlapping service intervals, in time order
	Util float64    // sum(Busy) / horizon, set by DiskTimelines
}

// Series is one named time-series: Y[i] is the value of bin i, where
// bin i covers [i*Bin, (i+1)*Bin) ns.
type Series struct {
	Name string
	Bin  int64 // bin width, ns
	Y    []float64
}

// End returns the time of the last event edge in the trace (the natural
// plotting horizon), 0 for an empty trace.
func (r *Recorder) End() int64 {
	var end int64
	for _, e := range r.Events() {
		if e.T > end {
			end = e.T
		}
		if e.End > end {
			end = e.End
		}
	}
	return end
}

// DiskTimelines returns one Timeline per disk — the registered disks
// (see RegisterDisk) in registration order, idle ones included, plus
// any unregistered disk that recorded service intervals in
// first-appearance order — with Util computed over [0, horizon].
// horizon <= 0 uses End().
func (r *Recorder) DiskTimelines(horizon int64) []Timeline {
	if r == nil {
		return nil
	}
	if horizon <= 0 {
		horizon = r.End()
	}
	index := map[string]int{}
	var tls []Timeline
	for _, name := range r.disks {
		index[name] = len(tls)
		tls = append(tls, Timeline{Name: name})
	}
	for _, e := range r.Events() {
		if e.Kind != KindDiskService {
			continue
		}
		i, ok := index[e.Node]
		if !ok {
			i = len(tls)
			index[e.Node] = i
			tls = append(tls, Timeline{Name: e.Node})
		}
		tls[i].Busy = append(tls[i].Busy, Interval{Start: e.T, End: e.End})
	}
	for i := range tls {
		var busy int64
		for _, iv := range tls[i].Busy {
			busy += iv.End - iv.Start
		}
		if horizon > 0 {
			tls[i].Util = float64(busy) / float64(horizon)
		}
	}
	return tls
}

// MeanDiskUtilization returns the mean of the per-disk utilizations
// over [0, horizon] (horizon <= 0 uses End()); 0 when no disk activity
// was traced. This is the number behind the paper's "disk-directed I/O
// keeps the disks busy" claim: on the same workload it is high for the
// disk-directed file system and low for traditional caching.
func (r *Recorder) MeanDiskUtilization(horizon int64) float64 {
	tls := r.DiskTimelines(horizon)
	if len(tls) == 0 {
		return 0
	}
	var sum float64
	for _, tl := range tls {
		sum += tl.Util
	}
	return sum / float64(len(tls))
}

// UtilizationSeries returns aggregate disk utilization per time bin:
// the busy time of all disks inside each bin divided by bin width times
// the disk count (1.0 = every disk busy for the whole bin). bin <= 0
// picks 1/100 of the horizon.
func (r *Recorder) UtilizationSeries(bin int64) Series {
	horizon := r.End()
	if bin <= 0 {
		bin = horizon / 100
		if bin <= 0 {
			bin = 1
		}
	}
	tls := r.DiskTimelines(horizon)
	s := Series{Name: "disk utilization", Bin: bin, Y: make([]float64, numBins(horizon, bin))}
	if len(tls) == 0 {
		return s
	}
	for _, tl := range tls {
		for _, iv := range tl.Busy {
			spread(s.Y, bin, iv.Start, iv.End, float64(iv.End-iv.Start))
		}
	}
	for i := range s.Y {
		s.Y[i] /= float64(binWidth(i, horizon, bin)) * float64(len(tls))
	}
	return s
}

// numBins returns how many bins of width bin cover [0, horizon].
func numBins(horizon, bin int64) int {
	n := int((horizon + bin - 1) / bin)
	if n < 1 {
		n = 1
	}
	return n
}

// binWidth returns the covered width of bin i: bin for interior bins,
// the remainder for the final bin clipped by the horizon.
func binWidth(i int, horizon, bin int64) int64 {
	w := horizon - int64(i)*bin
	if w > bin || w <= 0 {
		w = bin
	}
	return w
}

// BandwidthSeries returns aggregate disk bandwidth per time bin in
// bytes/s, attributing each service interval's bytes proportionally to
// the bins it overlaps. bin <= 0 picks 1/100 of the horizon.
func (r *Recorder) BandwidthSeries(bin int64) Series {
	horizon := r.End()
	if bin <= 0 {
		bin = horizon / 100
		if bin <= 0 {
			bin = 1
		}
	}
	s := Series{Name: "disk bandwidth", Bin: bin, Y: make([]float64, numBins(horizon, bin))}
	for _, e := range r.Events() {
		if e.Kind != KindDiskService || e.Bytes == 0 {
			continue
		}
		spread(s.Y, bin, e.T, e.End, float64(e.Bytes))
	}
	for i := range s.Y {
		s.Y[i] /= float64(binWidth(i, horizon, bin)) / 1e9
	}
	return s
}

// spread adds total to the bins overlapped by [start, end],
// proportionally to the overlap. A zero-length interval credits its
// whole weight to the bin containing it.
func spread(bins []float64, bin, start, end int64, total float64) {
	if end < start {
		return
	}
	if end == start {
		i := int(start / bin)
		if i >= len(bins) {
			i = len(bins) - 1
		}
		bins[i] += total
		return
	}
	dur := float64(end - start)
	for i := int(start / bin); i <= int((end-1)/bin) && i < len(bins); i++ {
		lo, hi := int64(i)*bin, (int64(i)+1)*bin
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		if hi > lo {
			bins[i] += total * float64(hi-lo) / dur
		}
	}
}

// RequestLatencies summarizes server-side request latencies (seconds)
// from KindReqEnd events, with the p50/p90/p99 fields populated.
func (r *Recorder) RequestLatencies() stats.Summary {
	var xs []float64
	for _, e := range r.Events() {
		if e.Kind == KindReqEnd {
			xs = append(xs, float64(e.End-e.T)/1e9)
		}
	}
	return stats.SummarizePercentiles(xs)
}

// QueueDepthSeries returns the p50/p90/p99 of disk queue depth per time
// bin, over the KindDiskQueue samples of all disks. Bins without a
// sample carry the previous bin's value forward (a queue keeps its
// depth between submissions), starting from 0. bin <= 0 picks 1/100 of
// the horizon.
func (r *Recorder) QueueDepthSeries(bin int64) []Series {
	horizon := r.End()
	if bin <= 0 {
		bin = horizon / 100
		if bin <= 0 {
			bin = 1
		}
	}
	n := numBins(horizon, bin)
	samples := make([][]float64, n)
	for _, e := range r.Events() {
		if e.Kind != KindDiskQueue {
			continue
		}
		i := int(e.T / bin)
		if i >= n {
			i = n - 1
		}
		samples[i] = append(samples[i], float64(e.Depth))
	}
	quantiles := []struct {
		name string
		q    float64
	}{
		{"queue depth p50", 0.50},
		{"queue depth p90", 0.90},
		{"queue depth p99", 0.99},
	}
	out := make([]Series, len(quantiles))
	for k, qq := range quantiles {
		s := Series{Name: qq.name, Bin: bin, Y: make([]float64, n)}
		var last float64
		for i := range s.Y {
			if len(samples[i]) > 0 {
				last = stats.Quantile(samples[i], qq.q)
			}
			s.Y[i] = last
		}
		out[k] = s
	}
	return out
}

// OccupancySeries returns mean buffer/cache occupancy (fraction of
// capacity, 0..1) per time bin over the KindBuffer samples of all
// nodes. Bins without a sample carry the previous value forward. bin
// <= 0 picks 1/100 of the horizon.
func (r *Recorder) OccupancySeries(bin int64) Series {
	horizon := r.End()
	if bin <= 0 {
		bin = horizon / 100
		if bin <= 0 {
			bin = 1
		}
	}
	n := numBins(horizon, bin)
	sum := make([]float64, n)
	cnt := make([]int, n)
	for _, e := range r.Events() {
		if e.Kind != KindBuffer || e.Depth <= 0 {
			continue
		}
		i := int(e.T / bin)
		if i >= n {
			i = n - 1
		}
		sum[i] += float64(e.Bytes) / float64(e.Depth)
		cnt[i]++
	}
	s := Series{Name: "cache occupancy", Bin: bin, Y: make([]float64, n)}
	var last float64
	for i := range s.Y {
		if cnt[i] > 0 {
			last = sum[i] / float64(cnt[i])
		}
		s.Y[i] = last
	}
	return s
}

// PoolTimelines returns one Timeline per service pool from KindPoolBusy
// events, in first-appearance order. A pool runs several workers, so
// its raw busy intervals overlap; each timeline carries the merged
// union (the "at least one worker busy" view) and its utilization over
// [0, horizon] (horizon <= 0 uses End()).
func (r *Recorder) PoolTimelines(horizon int64) []Timeline {
	if r == nil {
		return nil
	}
	if horizon <= 0 {
		horizon = r.End()
	}
	index := map[string]int{}
	var tls []Timeline
	for _, e := range r.Events() {
		if e.Kind != KindPoolBusy {
			continue
		}
		i, ok := index[e.Node]
		if !ok {
			i = len(tls)
			index[e.Node] = i
			tls = append(tls, Timeline{Name: e.Node})
		}
		tls[i].Busy = append(tls[i].Busy, Interval{Start: e.T, End: e.End})
	}
	for i := range tls {
		tls[i].Busy = mergeIntervals(tls[i].Busy)
		var busy int64
		for _, iv := range tls[i].Busy {
			busy += iv.End - iv.Start
		}
		if horizon > 0 {
			tls[i].Util = float64(busy) / float64(horizon)
		}
	}
	return tls
}

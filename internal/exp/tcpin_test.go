package exp

import (
	"testing"
	"time"

	"ddio/internal/workload"
)

// TestTCCallLoopPinned pins the traditional-caching CP's two entry
// points, a request stream and a collective transfer, at fixed event
// counts and elapsed times. The workload stacks three phases in each
// CP's memory, so the second stream phase and the collective run at a
// nonzero memory base. The stream phases mix reads and writes of
// sub-block records under open arrivals. The strided run pipelines
// requests across chunks and waits for its replies once, after its
// last chunk.
func TestTCCallLoopPinned(t *testing.T) {
	frac := 0.6
	stream := workload.Phase{
		Pattern:      workload.PatternUniform,
		Requests:     48,
		RecordSizes:  []int{100, 3000, 6000, 12000},
		ReadFraction: &frac,
		Arrival:      "poisson",
		RatePerSec:   4000,
	}
	wl := smokeCfg()
	wl.Method = TraditionalCaching
	wl.Workload = &workload.Spec{Name: "tc-pin", Phases: []workload.Phase{stream, {Pattern: "rc"}, stream}}

	strided := smokeCfg()
	strided.Method = TraditionalCaching
	strided.Pattern = "rc"
	strided.RecordSize = 8
	strided.FileBytes = 64 * 1024
	strided.TC.StridedRequests = true

	for _, tc := range []struct {
		name    string
		cfg     Config
		events  int64
		elapsed time.Duration
	}{
		{"workload", wl, 6439, 3058277155},
		{"strided-rc-8", strided, 106684, 1158937120},
	} {
		r, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.VerifyErrors != 0 {
			t.Errorf("%s: %d verify errors", tc.name, r.VerifyErrors)
		}
		if r.Events != tc.events || r.Elapsed != tc.elapsed {
			t.Errorf("%s: %d events in %v, want %d in %v", tc.name, r.Events, r.Elapsed, tc.events, tc.elapsed)
		}
	}
}

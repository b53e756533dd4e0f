package tcfs

import (
	"testing"
	"time"

	"ddio/internal/pfs"
	"ddio/internal/workload"
)

// TestHandlerProcFallbacks runs one transfer for each cache call a
// handler cannot finish in event context, so it borrows a proc: a read
// miss, a read waiting for another handler's fill, a read that must
// fill a frame a write installed, a write waiting for a flush, the
// flush of a block a write filled, and a frame acquire that waits
// because both of a 2-frame cache's frames are pinned or in flight. Each case checks its data and pins the events and elapsed
// time of the proc-per-request server: handlers run as tokens, but
// every simulated cost and every event stays where it was. The rig
// checks that no proc is left blocked.
func TestHandlerProcFallbacks(t *testing.T) {
	const bs = 8192
	twoFrames := DefaultParams()
	twoFrames.BuffersPerDiskPerCP = 0 // the cache's floor: 2 frames
	for _, tc := range []struct {
		name    string
		opts    rigOpts
		pattern string // whole-file transfer, or "" for streams
		record  int
		streams [][]workload.Req
		events  int64
		elapsed time.Duration
	}{
		{
			name: "read miss", pattern: "rn", record: bs,
			opts:   rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 4, layout: pfs.Contiguous},
			events: 102, elapsed: 29355617,
		},
		{
			name: "read waits for another fill",
			opts: rigOpts{ncp: 3, niop: 1, ndisks: 1, blocks: 2, layout: pfs.Contiguous},
			streams: [][]workload.Req{
				{{FileOff: 0, Len: bs, MemOff: 0}},
				{{FileOff: 100, Len: 200, MemOff: 100}},
				{{FileOff: 4000, Len: 10, MemOff: 4000, Think: 500 * time.Microsecond}},
			},
			events: 84, elapsed: 22592121,
		},
		{
			name: "write waits for a flush",
			opts: rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 2, layout: pfs.Contiguous},
			streams: [][]workload.Req{
				{{Write: true, FileOff: 0, Len: bs, MemOff: 0}},
				{{Write: true, FileOff: 0, Len: 4096, MemOff: 0, Think: time.Millisecond}},
			},
			events: 64, elapsed: 48326827,
		},
		{
			name: "read fills a written frame",
			opts: rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 2, layout: pfs.Contiguous},
			streams: [][]workload.Req{
				{{Write: true, FileOff: 100, Len: 1000, MemOff: 100}},
				{{FileOff: 0, Len: bs, MemOff: 0, Think: time.Millisecond}},
			},
			events: 69, elapsed: 33334339,
		},
		{
			name: "full-block flush", pattern: "wn", record: bs,
			opts:   rigOpts{ncp: 2, niop: 1, ndisks: 2, blocks: 4, layout: pfs.RandomBlocks},
			events: 95, elapsed: 62693718,
		},
		{
			name: "all frames pinned", pattern: "rc", record: 1024,
			opts:   rigOpts{ncp: 4, niop: 1, ndisks: 2, blocks: 8, layout: pfs.Contiguous, prm: &twoFrames},
			events: 1056, elapsed: 55137457,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, tc.opts)
			var elapsed time.Duration
			switch {
			case tc.streams != nil:
				elapsed = r.stream(t, tc.streams)
				for cp, reqs := range tc.streams {
					for _, rq := range reqs {
						i := r.f.VerifyRange(rq.FileOff, rq.Len, make([]byte, bs))
						if !rq.Write {
							i = int64(pfs.VerifyImage(r.m.CPs[cp].Mem[rq.MemOff:rq.MemOff+rq.Len], rq.FileOff))
						}
						if i >= 0 {
							t.Fatalf("cp%d request at %d: mismatch at %d", cp, rq.FileOff, i)
						}
					}
				}
			default:
				write := tc.pattern[0] == 'w'
				prm := DefaultParams()
				if tc.opts.prm != nil {
					prm = *tc.opts.prm
				}
				dec := mustDecomp(t, tc.pattern, r.f.Size(), tc.record, tc.opts.ncp)
				elapsed = r.transfer(t, dec, write, prm)
				if write {
					r.verifyWrite(t)
				} else {
					r.verifyRead(t, dec)
				}
			}
			if r.eng.Events() != tc.events || elapsed != tc.elapsed {
				t.Errorf("%d events, elapsed %v; want %d, %v", r.eng.Events(), elapsed, tc.events, tc.elapsed)
			}
		})
	}
}

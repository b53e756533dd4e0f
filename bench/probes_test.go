package main

import (
	"testing"

	"ddio/internal/sim"
)

// TestProbesMatchTheWorkloadsTheyFeed checks each messaging probe's
// message size and machine width against the workload it claims to
// model, so the two cannot drift apart.
func TestProbesMatchTheWorkloadsTheyFeed(t *testing.T) {
	ws := workloads()
	for _, d := range probes() {
		w, ok := ws[d.feeds]
		if !ok {
			t.Errorf("%s feeds unknown workload %q", d.name, d.feeds)
			continue
		}
		if d.size == 0 {
			continue
		}
		var record, ncp, niop int
		switch w := w.(type) {
		case *simWorkload:
			record, ncp, niop = w.base.RecordSize, w.base.NCP, w.base.NIOP
		case *sweepWorkload:
			record, ncp, niop = w.base.RecordSize, w.base.NCP, w.base.NIOP
		default:
			t.Errorf("%s feeds %s, which has no fixed message shape", d.name, d.feeds)
			continue
		}
		if d.size != record || d.cps != ncp || d.cps != niop {
			t.Errorf("%s: %d-byte messages on %d CPs/IOPs, but %s uses %d-byte records on %d CPs and %d IOPs",
				d.name, d.size, d.cps, d.feeds, record, ncp, niop)
		}
	}
}

// TestHoldModelKeepsPendingLevel checks the event probes hold their
// named number of pending events while successors remain.
func TestHoldModelKeepsPendingLevel(t *testing.T) {
	for _, pending := range []int{1 << 10, 1 << 14} {
		h := newHold(pending, 1<<20)
		h.eng.RunUntil(sim.Time(holdGap))
		if h.left == 1<<20 || h.left == 0 {
			t.Fatalf("pending %d: %d successors left, want the run mid-way", pending, h.left)
		}
		if h.pending != pending {
			t.Errorf("pending level %d, want %d", h.pending, pending)
		}
		h.eng.Close()
	}
}

// TestProbesRun runs every probe for a few operations.
func TestProbesRun(t *testing.T) {
	for _, d := range probes() {
		elapsed, ops, _, err := timeProbe(d, 64)
		if err != nil || ops < 64 || elapsed <= 0 {
			t.Errorf("%s: %d ops in %v: %v", d.name, ops, elapsed, err)
		}
	}
}

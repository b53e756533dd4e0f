package core

import (
	"fmt"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
	"ddio/internal/sim"
	"ddio/internal/workload"
)

// TestCoveredBytesDedupesOverlap pins the interval-merge helper: summing
// run lengths overstates coverage when runs overlap.
func TestCoveredBytesDedupesOverlap(t *testing.T) {
	cases := []struct {
		runs []hpf.Run
		want int64
	}{
		{nil, 0},
		{[]hpf.Run{{FileOff: 0, Len: 100}}, 100},
		{[]hpf.Run{{FileOff: 0, Len: 100}, {FileOff: 100, Len: 50}}, 150},
		{[]hpf.Run{{FileOff: 0, Len: 100}, {FileOff: 50, Len: 100}}, 150},
		{[]hpf.Run{{FileOff: 0, Len: 100}, {FileOff: 10, Len: 20}}, 100},
		{[]hpf.Run{{FileOff: 0, Len: 100}, {FileOff: 200, Len: 10}}, 110},
		// The bug's shape: two 5000-byte runs overlapping by 4000 sum to
		// 10000 (>= an 8192 block) but cover only 6000 distinct bytes.
		{[]hpf.Run{{FileOff: 0, Len: 5000}, {FileOff: 1000, Len: 5000}}, 6000},
	}
	for i, c := range cases {
		if got := coveredBytes(c.runs); got != c.want {
			t.Errorf("case %d: coveredBytes = %d, want %d", i, got, c.want)
		}
	}
}

// TestOverlappingWriteSlotsKeepRMW is the end-to-end regression test for
// the overlap-accounting bug: writeLoop's read-modify-write decision
// summed run lengths, so overlapping partial-block write slots whose
// lengths add up past the block size skipped the RMW and destroyed the
// block's uncovered tail. Two workload request slots overlap within
// block 0 — 5000 + 5000 bytes covering only [0, 6000) of an 8192-byte
// block — so the RMW must still run and the tail must survive.
func TestOverlappingWriteSlotsKeepRMW(t *testing.T) {
	r := newRig(t, rigOpts{ncp: 2, niop: 1, ndisks: 1, blocks: 2, layout: pfs.Contiguous})
	slots := []workload.Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 5000},
		{CP: 1, FileOff: 1000, MemOff: 0, Len: 5000},
	}
	acc := workload.NewSlotAccess(slots, len(r.m.CPs))
	r.f.Preload() // uncovered bytes must survive the partial write
	// Overlapping writes carry the identical deterministic file image
	// (the workload layer's contract), so write order cannot matter.
	for cp, node := range r.m.CPs {
		node.Mem = make([]byte, acc.CPBytes(cp))
		for _, s := range acc.Chunks(cp) {
			pfs.FillImage(node.Mem[s.MemOff:s.MemOff+s.Len], s.FileOff)
		}
	}
	client := NewClient(r.m, r.f, acc, r.servers, DefaultParams())
	for cp := range r.m.CPs {
		cp := cp
		r.eng.Go(fmt.Sprintf("cp%d", cp), func(p *sim.Proc) { client.TransferCP(p, cp, true) })
	}
	r.eng.Run()
	if client.EndTime() == 0 {
		t.Fatalf("collective did not complete; blocked: %v", r.eng.BlockedProcs())
	}
	if got := r.totalMetrics().PartialBlockRMW; got != 1 {
		t.Fatalf("PartialBlockRMW = %d, want 1 (overlap must not fake full coverage)", got)
	}
	r.verifyWritten(t, 0, 6000)
	r.verifyPreloaded(t, 6000, r.f.Size()-6000) // block 0's tail survived; block 1 was never written
}

package workload

import (
	"reflect"
	"testing"

	"ddio/internal/hpf"
)

func TestSlotAccessBasics(t *testing.T) {
	a := NewSlotAccess([]Slot{
		{CP: 1, FileOff: 100, MemOff: 0, Len: 50},
		{CP: 0, FileOff: 200, MemOff: 10, Len: 30},
		{CP: 0, FileOff: 0, MemOff: 40, Len: 20},
	}, 2)
	if a.NCP() != 2 {
		t.Fatalf("NCP = %d", a.NCP())
	}
	if got := a.Bytes(); got != 100 {
		t.Errorf("Bytes = %d, want 100", got)
	}
	// Per-CP slots sort by file offset regardless of input order.
	if s := a.Slots(0); s[0].FileOff != 0 || s[1].FileOff != 200 {
		t.Errorf("CP0 slots unsorted: %+v", s)
	}
	if got := a.CPBytes(0); got != 60 {
		t.Errorf("CPBytes(0) = %d, want 60", got)
	}
	if got := a.CPBytes(1); got != 50 {
		t.Errorf("CPBytes(1) = %d, want 50", got)
	}
	if got := a.CPBytes(7); got != 0 {
		t.Errorf("CPBytes out of range = %d", got)
	}
	if !a.Partial() {
		t.Error("SlotAccess must report Partial")
	}
	if got := a.Chunks(1); len(got) != 1 || got[0] != (hpf.Chunk{FileOff: 100, MemOff: 0, Len: 50}) {
		t.Errorf("Chunks(1) = %+v", got)
	}
}

func TestSlotAccessRunsInRange(t *testing.T) {
	// Two overlapping reads of the same range on different CPs plus a
	// disjoint slot: every overlapping slot yields its own clipped run.
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 100},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 100},
		{CP: 0, FileOff: 300, MemOff: 100, Len: 10},
	}, 2)
	got := a.RunsInRange(40, 40)
	want := []hpf.Run{
		{CP: 0, FileOff: 40, MemOff: 40, Len: 40},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunsInRange(40,40) = %+v, want %+v", got, want)
	}
	if got := a.RunsInRange(150, 100); got != nil {
		t.Errorf("uncovered range produced runs: %+v", got)
	}
	if got := a.RunsInRange(0, 0); got != nil {
		t.Errorf("empty range produced runs: %+v", got)
	}
}

// TestRunsInRangeFindsLongSlotBeforeShortOne: slot ends are not sorted
// when lengths differ. A short slot after a long one must not hide the
// long slot from a range past the short slot's end.
func TestRunsInRangeFindsLongSlotBeforeShortOne(t *testing.T) {
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 8192},
		{CP: 0, FileOff: 4096, MemOff: 8192, Len: 512},
	}, 1)
	got := a.RunsInRange(5000, 100)
	want := []hpf.Run{{CP: 0, FileOff: 5000, MemOff: 5000, Len: 100}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RunsInRange(5000,100) = %+v, want %+v", got, want)
	}
}

func TestOffsetAccess(t *testing.T) {
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 10},
		{CP: 1, FileOff: 10, MemOff: 0, Len: 10},
	}, 2)
	if got := Offset(a, []int64{0, 0}); got != hpf.Access(a) {
		t.Error("all-zero base must return the access unchanged")
	}
	if got := Offset(nil, []int64{5}); got != nil {
		t.Error("nil access must stay nil")
	}
	o := Offset(a, []int64{100, 200})
	if got := o.Chunks(0)[0].MemOff; got != 100 {
		t.Errorf("CP0 chunk MemOff = %d, want 100", got)
	}
	if got := o.Chunks(1)[0].MemOff; got != 200 {
		t.Errorf("CP1 chunk MemOff = %d, want 200", got)
	}
	runs := o.RunsInRange(0, 20)
	if len(runs) != 2 || runs[0].MemOff != 100 || runs[1].MemOff != 200 {
		t.Errorf("offset runs = %+v", runs)
	}
	// Footprints and partiality pass through untouched.
	if o.CPBytes(0) != a.CPBytes(0) || !o.Partial() {
		t.Error("offset wrapper changed CPBytes or Partial")
	}
}

func TestConforming(t *testing.T) {
	// Overlapping and duplicate ranges merge into a disjoint union that
	// is dealt over the CPs byte-balanced and covers every input byte.
	a := NewSlotAccess([]Slot{
		{CP: 0, FileOff: 0, MemOff: 0, Len: 100},
		{CP: 1, FileOff: 50, MemOff: 0, Len: 100}, // overlaps the first
		{CP: 2, FileOff: 50, MemOff: 0, Len: 10},  // duplicate inside
		{CP: 0, FileOff: 300, MemOff: 100, Len: 50},
	}, 4)
	conf := Conforming(a, 4)
	// Union = [0,150) + [300,350) = 200 bytes.
	if got := conf.Bytes(); got != 200 {
		t.Fatalf("conforming bytes = %d, want 200", got)
	}
	covered := make(map[int64]int)
	var total int64
	for cp := 0; cp < 4; cp++ {
		if got := conf.CPBytes(cp); got != 50 {
			t.Errorf("CP%d staging bytes = %d, want 50", cp, got)
		}
		var mem int64
		for _, s := range conf.Slots(cp) {
			if s.MemOff != mem {
				t.Errorf("CP%d staging not cumulative: slot %+v at mem %d", cp, s, mem)
			}
			mem += s.Len
			total += s.Len
			for b := s.FileOff; b < s.FileOff+s.Len; b++ {
				covered[b]++
			}
		}
	}
	if total != 200 || len(covered) != 200 {
		t.Fatalf("conforming covers %d bytes in %d positions, want 200/200", total, len(covered))
	}
	for b, n := range covered {
		if n != 1 {
			t.Fatalf("byte %d covered %d times", b, n)
		}
	}
	// Original ranges must be found in the staging area.
	if runs := conf.RunsInRange(120, 30); len(runs) == 0 {
		t.Error("union range [120,150) not covered")
	}
}

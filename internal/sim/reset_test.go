package sim

import "testing"

// TestWaitGroupReset: a drained WaitGroup can be re-armed (the tcfs
// client pools its per-request WaitGroups on this), but resetting one
// that is still counting or has parked waiters must panic — that would
// silently strand them.
func TestWaitGroupReset(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup(e, "reset-test", 1)
	wg.Done()
	wg.Reset(2)
	if wg.Count() != 2 {
		t.Fatalf("count after Reset = %d, want 2", wg.Count())
	}
	wg.Done()
	wg.Done()

	// Reuse through a full park/wake cycle.
	wg.Reset(1)
	woke := false
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		woke = true
	})
	e.AtCompletion(0, wg.DoneC())
	e.Run()
	if !woke {
		t.Fatal("waiter never woke after Reset reuse")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a counting WaitGroup did not panic")
		}
	}()
	wg.Reset(1)
	wg.Reset(1) // count is 1: must panic
}

package main

import "testing"

func TestSpeedRefScale(t *testing.T) {
	r, err := newSpeedRef()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < 3; i++ {
		if err := r.sample(); err != nil {
			t.Fatal(err)
		}
	}
	// Within a factor of 20 of nominal on any machine that can run the
	// tests; a broken part (a sample of ~0 or a stall) falls outside.
	if k := r.scale(); k < 0.05 || k > 20 {
		t.Errorf("speed scale %v", k)
	}
	for i, p := range r.parts {
		if len(p.samples) != 3 {
			t.Errorf("part %d has %d samples, want 3", i, len(p.samples))
		}
	}
}

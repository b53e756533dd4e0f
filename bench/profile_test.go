package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"ddio/internal/sim.(*Engine).loop"}, "sim"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "ddio/internal/tcfs.(*Server).handle"}, "runtime.malloc"},
		{[]string{"runtime.memmove", "ddio/internal/disk.(*Disk).ReadData"}, "disk"},
		{[]string{"runtime.memmove", "runtime.growslice", "ddio/internal/sim.(*Engine).Go"}, "runtime.malloc"},
		{[]string{"internal/runtime/syscall.Syscall6", "runtime.futex", "runtime.notesleep"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "ddio/internal/exp.CellKey"}, "exp"},
		{[]string{"ddio/internal/sim.(*Arena[go.shape.struct { ddio/internal/netsim.x int }]).Get"}, "sim"},
		{[]string{"net/http.(*conn).serve"}, "other"},
		{[]string{"main.main"}, "other"},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

// TestAttributeRealProfile profiles a busy loop and checks the shares
// partition the sampled time.
func TestAttributeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	sum := sha256.Sum256(nil)
	for time.Now().Before(deadline) {
		sum = sha256.Sum256(sum[:])
	}
	pprof.StopCPUProfile()
	shares, ns, err := attribute(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 {
		t.Skip("no samples taken")
	}
	total := 0.0
	for _, m := range hostModules {
		total += shares[m]
	}
	if math.Abs(total-1) > 1e-9 || len(shares) != len(hostModules) {
		t.Errorf("shares %v sum to %v over %d modules", shares, total, len(shares))
	}
	if shares["other"] < 0.5 {
		t.Errorf("a loop in the benchmark itself should be mostly \"other\": %v", shares)
	}
}

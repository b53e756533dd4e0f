package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// speed.go measures how fast the machine is running right now, so host
// times from runs made minutes apart can be compared.
//
// On a shared host the simulator's speed drifts by tens of percent over
// minutes as neighbours come and go: in one 10-minute capture on a
// 2-vCPU VM the tc-read-8b op took 0.23 s and, three minutes later,
// 0.44 s, with nothing else running in the VM. Medians cannot average
// away a drift that outlasts a run, so each run times a fixed reference
// between its measurement slices and rescales every host time by the
// reference's speed. The reference lives in the benchmark, so no change to
// the repository can move it.
//
// No single kind of work tracks every episode: some slow memory latency,
// some cross-CPU wake-ups, some plain compute. The reference therefore
// has three parts, each with a nominal time, and the scale is the
// geometric mean of nominal ÷ median over the parts:
//
//   - a dependent pointer chase through 8 MiB (memory latency);
//   - keep-alive HTTP round trips to a trivial loopback handler
//     (syscalls and goroutine wake-ups);
//   - sorting 16k integers and hashing 128 KiB (compute).
//
// In a 20-minute capture of tc-read-8b ops on that VM, the spread
// (interquartile range over median) of the median op time over 20-second
// windows was 14% raw, 6-7% rescaled by any one part and 4% by all
// three.

// refPart is one part of the reference and the samples taken of it.
type refPart struct {
	nominal time.Duration // its time on the nominal machine
	once    func() error  // one timed repetition
	samples []float64     // seconds per sample
}

// speedRef is the three-part reference. Its memory lives in an anonymous
// mapping outside the Go heap, so it neither adds to what the collector
// scans nor shifts the workload's GC pacing (it does add 8 MiB to the
// resident set).
type speedRef struct {
	parts   []*refPart
	release []func()
}

const (
	chaseLen       = 1 << 21 // pointer-chase entries (int32): 8 MiB, past the per-core caches
	chaseSteps     = 100_000 // dependent loads per sample
	pingRoundTrips = 200     // HTTP round trips per sample
	sortLen        = 1 << 14 // integers sorted per sample
	hashBytes      = 128 << 10
)

func newSpeedRef() (*speedRef, error) {
	mem, err := syscall.Mmap(-1, 0, (chaseLen+sortLen)*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("bench: mapping the speed reference: %w", err)
	}
	words := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), chaseLen+sortLen)
	next, scratch := words[:chaseLen], words[chaseLen:]
	// Sattolo's algorithm: a uniformly random permutation with a single
	// cycle, so the chase visits every entry before repeating.
	for i := range next {
		next[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := chaseLen - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}

	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	transport := &http.Transport{MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: transport}

	var sink int32 // keeps the chase and the hash live
	return &speedRef{
		parts: []*refPart{
			{nominal: 10 * time.Millisecond, once: func() error {
				j := int32(0)
				for i := 0; i < chaseSteps; i++ {
					j = next[j]
				}
				sink += j
				return nil
			}},
			{nominal: 5 * time.Millisecond, once: func() error {
				for i := 0; i < pingRoundTrips; i++ {
					resp, err := client.Get(ts.URL)
					if err != nil {
						return err
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{nominal: 1200 * time.Microsecond, once: func() error {
				copy(scratch, next[:sortLen])
				slices.Sort(scratch)
				sum := sha256.Sum256(mem[:hashBytes])
				sink += scratch[0] + int32(sum[0])
				return nil
			}},
		},
		release: []func(){
			ts.Close,
			transport.CloseIdleConnections,
			func() { _ = syscall.Munmap(mem) }, // only fails for a bad range; exit unmaps it anyway
		},
	}, nil
}

// sample times each part once.
func (r *speedRef) sample() error {
	for _, p := range r.parts {
		start := time.Now()
		if err := p.once(); err != nil {
			return fmt.Errorf("bench: speed reference: %w", err)
		}
		p.samples = append(p.samples, time.Since(start).Seconds())
	}
	return nil
}

// scale is the factor that rescales a host time measured during the
// samples to the nominal machine: the geometric mean over the parts of
// nominal ÷ median sample. Above 1 the machine ran faster than nominal.
func (r *speedRef) scale() float64 {
	logSum := 0.0
	for _, p := range r.parts {
		_, med, _ := quartiles(p.samples)
		logSum += math.Log(ratio(p.nominal.Seconds(), med))
	}
	return math.Exp(logSum / float64(len(r.parts)))
}

func (r *speedRef) close() {
	for _, f := range r.release {
		f()
	}
}

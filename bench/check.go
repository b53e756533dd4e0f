package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"ddio/internal/exp"
)

// eventRateEvents is the event count BenchmarkSimulatorEventRate pins for
// its run: the tc-read-8b op with seed 1 is that exact run (with
// verification on, which happens after the simulation and fires no
// events).
const eventRateEvents = 888040

// pinsFile holds the pinned per-op digests of the simulation workloads
// for op seeds FirstSeed, FirstSeed+1, ... — the ops a run with the
// default -seed 1 executes. Regenerate it with -pin after a change that
// is meant to alter the simulated physics, and only then.
//
//go:embed pins.json
var pinsFile []byte

// pins maps a workload name to its digests, index i holding op seed
// FirstSeed+i.
type pins struct {
	FirstSeed int64               `json:"first_seed"`
	Digests   map[string][]string `json:"digests"`
}

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsFile, &p); err != nil {
		return nil, fmt.Errorf("bench: parsing pins.json: %w", err)
	}
	return &p, nil
}

// lookup returns the digest pinned for the op of workload with the given
// seed, if that seed is in the pinned range.
func (p *pins) lookup(workload string, seed int64) (string, bool) {
	if p == nil {
		return "", false
	}
	ds := p.Digests[workload]
	i := seed - p.FirstSeed
	if i < 0 || i >= int64(len(ds)) {
		return "", false
	}
	return ds[i], true
}

// opDigest condenses the simulated outcome of one op — one run, or the
// cells of one sweep in table order — into a short hex digest over each
// run's (seed, events, elapsed ns, moved bytes, messages, disk reads, disk
// writes). A host-only change leaves every digest unchanged.
func opDigest(results []*exp.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%d %d %d %d %d %d %d\n", r.Config.Seed, r.Events, r.Elapsed.Nanoseconds(),
			r.MovedBytes, r.NetMsgs, r.Disk.Reads, r.Disk.Writes)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkRun reports why one simulation failed the correctness gate: a run
// error, a verification error, or a request lost to faults.
func checkRun(res *exp.Result, err error) error {
	switch {
	case err != nil:
		return err
	case res.VerifyErrors > 0:
		return fmt.Errorf("seed %d: %d verification errors", res.Config.Seed, res.VerifyErrors)
	case res.Faults.Exhausted > 0:
		return fmt.Errorf("seed %d: %d requests lost to faults", res.Config.Seed, res.Faults.Exhausted)
	}
	return nil
}

// checkPinned compares one op's digest with the pinned one, when its seed
// is in the pinned range.
func checkPinned(p *pins, workload string, seed int64, results []*exp.Result) error {
	want, ok := p.lookup(workload, seed)
	if !ok {
		return nil
	}
	if got := opDigest(results); got != want {
		return fmt.Errorf("op seed %d: digest %s, pinned %s (simulated outcome changed)", seed, got, want)
	}
	return nil
}

// pinnedOps is how many op seeds, from 1, the pins cover: every op of a
// run with the default seed.
const pinnedOps = 512

// writePins recomputes the pinned digests of every simulation workload
// and writes them to path.
func writePins(path string) error {
	out := pins{FirstSeed: 1, Digests: map[string][]string{}}
	runner := exp.NewRunner(loadThreads, nil)
	for name, w := range workloads() {
		var ops func(seed int64) []exp.Config
		switch w := w.(type) {
		case *simWorkload:
			ops = func(seed int64) []exp.Config { return []exp.Config{w.config(seed, 0)} }
		case *sweepWorkload:
			ops = func(seed int64) []exp.Config { return w.configs(seed, 0) }
		default:
			continue
		}
		// Batch seeds so the runner's workers share the load.
		end := out.FirstSeed + pinnedOps
		for lo := out.FirstSeed; lo < end; lo += 16 {
			var cfgs []exp.Config
			per := 0
			for seed := lo; seed < min(lo+16, end); seed++ {
				op := ops(seed)
				per = len(op)
				cfgs = append(cfgs, op...)
			}
			results, err := runner.RunAll(cfgs, nil)
			if err != nil {
				return fmt.Errorf("bench: pinning %s: %w", name, err)
			}
			for i := 0; i < len(results); i += per {
				out.Digests[name] = append(out.Digests[name], opDigest(results[i:i+per]))
			}
		}
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

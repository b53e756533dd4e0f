package exp

// cellkey_test.go pins the two properties the serving layer's cache
// soundness rests on: canonical-encoding invariance (equal resolved
// configs hash equal, no matter how the defining JSON was ordered) and
// sensitivity (any simulation-relevant difference — seed, trial, shape,
// method, pattern, layout, tuning, disk model, fault plan — hashes
// distinct).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ddio/internal/fault"
	"ddio/internal/pfs"
	"ddio/internal/workload"
)

// randomConfig builds a randomized but structurally plausible Config.
// CellKey never simulates, so the shapes need not be runnable.
func randomConfig(r *rand.Rand) Config {
	cfg := DefaultConfig()
	methods := []Method{TraditionalCaching, DiskDirected, DiskDirectedSort, TwoPhase}
	patterns := []string{"ra", "rb", "rc", "rn", "rbb", "rcc", "wb", "wc", "wn"}
	cfg.Method = methods[r.Intn(len(methods))]
	cfg.Pattern = patterns[r.Intn(len(patterns))]
	cfg.NCP = 1 + r.Intn(32)
	cfg.NIOP = 1 + r.Intn(32)
	cfg.NDisks = 1 + r.Intn(32)
	cfg.FileBytes = int64(1+r.Intn(16)) * MiB
	cfg.RecordSize = []int{8, 1024, 4096, 8192}[r.Intn(4)]
	if r.Intn(2) == 0 {
		cfg.Layout = pfs.Contiguous
	} else {
		cfg.Layout = pfs.RandomBlocks
	}
	cfg.Seed = r.Int63n(1 << 40)
	cfg.Verify = r.Intn(2) == 0
	if r.Intn(3) == 0 {
		cfg.Faults = &fault.Plan{
			Stragglers:        r.Intn(4),
			StragglerSlowdown: 1 + float64(r.Intn(4)),
			DiskErrorRate:     float64(r.Intn(50)) / 1000,
			RetryLimit:        1 + r.Intn(5),
		}
	}
	if r.Intn(3) == 0 {
		frac := float64(r.Intn(100)) / 100
		cfg.Workload = &workload.Spec{
			Name: "k",
			Phases: []workload.Phase{{
				Pattern:      workload.PatternSkew,
				Requests:     1 + r.Intn(200),
				Alpha:        r.Float64() * 2,
				ReadFraction: &frac,
				Arrival:      "poisson",
				RatePerSec:   float64(1 + r.Intn(5000)),
			}},
		}
	}
	return cfg
}

// mutateWL clones the config's workload (nil-safely), guarantees a
// synthetic phase to edit, applies the knob edit, and reassigns — so
// every workload mutation below is meaningful whether or not the base
// config carried a workload.
func mutateWL(c *Config, edit func(*workload.Phase)) {
	w := c.Workload.Clone()
	if len(w.Phases) == 0 {
		w.Phases = []workload.Phase{{Pattern: workload.PatternUniform, Requests: 8}}
	}
	edit(&w.Phases[0])
	c.Workload = w
}

// cellKeyMutations are single-field edits, each of which must change the
// cell key: serving a cached result across any of these boundaries would
// serve the wrong simulation.
var cellKeyMutations = []struct {
	name string
	edit func(*Config)
}{
	{"seed", func(c *Config) { c.Seed++ }},
	{"trial", func(c *Config) { c.Seed = trialSeed(c.Seed, 1) }},
	{"ncp", func(c *Config) { c.NCP++ }},
	{"niop", func(c *Config) { c.NIOP++ }},
	{"ndisks", func(c *Config) { c.NDisks++ }},
	{"filebytes", func(c *Config) { c.FileBytes += MiB }},
	{"blocksize", func(c *Config) { c.BlockSize *= 2 }},
	{"recordsize", func(c *Config) { c.RecordSize *= 2 }},
	{"pattern", func(c *Config) {
		if c.Pattern == "ra" {
			c.Pattern = "rc"
		} else {
			c.Pattern = "ra"
		}
	}},
	{"method", func(c *Config) { c.Method = (c.Method + 1) % 4 }},
	{"layout", func(c *Config) {
		if c.Layout == pfs.Contiguous {
			c.Layout = pfs.RandomBlocks
		} else {
			c.Layout = pfs.Contiguous
		}
	}},
	{"verify", func(c *Config) { c.Verify = !c.Verify }},
	{"bus-bandwidth", func(c *Config) { c.BusBandwidth *= 1.5 }},
	{"bus-overhead", func(c *Config) { c.BusOverhead += time.Microsecond }},
	{"barrier-cost", func(c *Config) { c.BarrierCost += time.Microsecond }},
	{"net-router-delay", func(c *Config) { c.Net.RouterDelay += time.Nanosecond }},
	{"tc-prefetch", func(c *Config) { c.TC.PrefetchBlocks++ }},
	{"dd-buffers", func(c *Config) { c.DD.BuffersPerDisk++ }},
	{"dd-presort", func(c *Config) { c.DD.Presort = !c.DD.Presort }},
	{"tp-copy", func(c *Config) { c.TP.CopyPerByte += time.Nanosecond }},
	{"disk-rpm", func(c *Config) {
		d := *c.Disk
		d.RPM += 1
		c.Disk = &d
	}},
	{"disk-seek-curve", func(c *Config) {
		d := *c.Disk
		orig := d.Seek
		d.Seek = func(cyls int) time.Duration { return orig(cyls) + time.Nanosecond }
		c.Disk = &d
	}},
	{"faults", func(c *Config) {
		if c.Faults == nil {
			c.Faults = &fault.Plan{}
		} else {
			p := c.Faults.Clone()
			p.DiskErrorRate += 0.001
			c.Faults = p
		}
	}},
	// One mutation per workload knob: each must perturb the key whether
	// or not the base config carried a workload (mutateWL is nil-safe).
	{"wl-enabled", func(c *Config) {
		w := c.Workload.Clone()
		w.Phases = append(w.Phases, workload.Phase{Pattern: "rb"})
		c.Workload = w
	}},
	{"wl-name", func(c *Config) {
		w := c.Workload.Clone()
		w.Name += "x"
		c.Workload = w
	}},
	{"wl-pattern", func(c *Config) {
		mutateWL(c, func(p *workload.Phase) {
			if p.Pattern == workload.PatternUniform {
				p.Pattern = workload.PatternHotspot
			} else {
				p.Pattern = workload.PatternUniform
			}
		})
	}},
	{"wl-requests", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.Requests++ }) }},
	{"wl-record-size", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.RecordSize += 8 }) }},
	{"wl-record-sizes", func(c *Config) {
		mutateWL(c, func(p *workload.Phase) { p.RecordSizes = append(p.RecordSizes, 4096) })
	}},
	{"wl-read-fraction", func(c *Config) {
		mutateWL(c, func(p *workload.Phase) {
			v := 0.5
			if p.ReadFraction != nil {
				v = *p.ReadFraction + 1
			}
			p.ReadFraction = &v
		})
	}},
	{"wl-alpha", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.Alpha += 0.25 }) }},
	{"wl-hot-fraction", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.HotFraction += 0.1 }) }},
	{"wl-hot-weight", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.HotWeight += 0.1 }) }},
	{"wl-arrival", func(c *Config) {
		mutateWL(c, func(p *workload.Phase) {
			if p.Arrival == "poisson" {
				p.Arrival = "closed"
			} else {
				p.Arrival = "poisson"
			}
		})
	}},
	{"wl-think", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.Think += time.Microsecond }) }},
	{"wl-rate", func(c *Config) { mutateWL(c, func(p *workload.Phase) { p.RatePerSec += 100 }) }},
	{"wl-trace", func(c *Config) {
		mutateWL(c, func(p *workload.Phase) {
			p.Trace = append(p.Trace, workload.TraceReq{Op: "r", Bytes: 8})
		})
	}},
}

// TestCellKeyProperties drives 150 randomized configs through the
// determinism and sensitivity properties.
func TestCellKeyProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		cfg := randomConfig(r)
		key := CellKey(cfg)
		if len(key) != 64 {
			t.Fatalf("case %d: key %q is not a hex sha256", i, key)
		}
		copied := cfg
		if got := CellKey(copied); got != key {
			t.Fatalf("case %d: equal configs hashed differently:\n %s\n %s", i, key, got)
		}
		// Re-encoding is byte-stable, not merely hash-stable.
		if !bytes.Equal(cellKeyBytes(cfg), cellKeyBytes(cfg)) {
			t.Fatalf("case %d: canonical encoding is not deterministic", i)
		}
		for _, m := range cellKeyMutations {
			mutated := cfg
			m.edit(&mutated)
			if got := CellKey(mutated); got == key {
				t.Fatalf("case %d: mutation %q did not change the cell key", i, m.name)
			}
		}
	}
}

// TestCellKeyTrialsDistinct pins that every trial of a cell occupies its
// own cache slot: the runner folds the trial index into the seed, and
// distinct seeds hash distinct.
func TestCellKeyTrialsDistinct(t *testing.T) {
	cfg := DefaultConfig()
	seen := make(map[string]int)
	for k := 0; k < 20; k++ {
		c := cfg
		c.Seed = trialSeed(cfg.Seed, k)
		key := CellKey(c)
		if prev, dup := seen[key]; dup {
			t.Fatalf("trials %d and %d share a cell key", prev, k)
		}
		seen[key] = k
	}
}

// encodeOrdered emits a JSON object with its keys in exactly the given
// order — the tool for constructing reordered-but-equal spec documents.
func encodeOrdered(t *testing.T, keys []string, m map[string]any) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := json.Marshal(m[k])
		if err != nil {
			t.Fatal(err)
		}
		b.Write(kb)
		b.WriteByte(':')
		b.Write(vb)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// TestCellKeyJSONFieldOrderInvariance parses 100 random permutations of
// the same sweep-spec document and checks every permutation expands to
// the identical cell-key sequence: the hash is computed over the resolved
// config, so caller JSON ordering can never split the cache.
func TestCellKeyJSONFieldOrderInvariance(t *testing.T) {
	fields := map[string]any{
		"name":     "perm",
		"title":    "permutation sweep",
		"axis":     "cps",
		"values":   []int{1, 2, 4},
		"layout":   "random-blocks",
		"methods":  []string{"ddio-sort", "tc"},
		"patterns": []string{"ra", "rc"},
		"record":   8192,
		"iops":     4,
		"disks":    4,
		"trials":   2,
		"filemb":   1,
		"faults": map[string]any{
			"disk_error_rate": 0.01,
			"retry_limit":     3,
		},
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	opts := Options{Trials: 2, FileBytes: MiB, Seed: 42, Verify: true}

	keysOf := func(doc []byte) []string {
		spec, err := ParseSweepSpec(doc)
		if err != nil {
			t.Fatalf("parsing %s: %v", doc, err)
		}
		_, cfgs, err := spec.Expand(opts)
		if err != nil {
			t.Fatalf("expanding %s: %v", doc, err)
		}
		out := make([]string, len(cfgs))
		for i, cfg := range cfgs {
			out[i] = CellKey(cfg)
		}
		return out
	}

	r := rand.New(rand.NewSource(11))
	baseline := keysOf(encodeOrdered(t, keys, fields))
	if len(baseline) == 0 {
		t.Fatal("baseline spec expanded to zero cells")
	}
	for trial := 0; trial < 100; trial++ {
		perm := make([]string, len(keys))
		for i, j := range r.Perm(len(keys)) {
			perm[i] = keys[j]
		}
		got := keysOf(encodeOrdered(t, perm, fields))
		if fmt.Sprint(got) != fmt.Sprint(baseline) {
			t.Fatalf("permutation %d (%v) changed the cell keys", trial, perm)
		}
	}
}

package exp

// fuzz_test.go fuzzes the sweep-spec file parser: any byte string must
// come back as a spec or an error — malformed axis pairs as the typed
// *SpecError — and a spec that parses must expand without panicking.
// `go test` runs the seed corpus as ordinary regression tests;
// `go test -fuzz=FuzzParseSweepSpec ./internal/exp/` explores from there.

import (
	"errors"
	"testing"
)

// specSeeds covers the spec grammar: valid single- and two-axis specs,
// every malformed axis-pair shape, and structural junk.
var specSeeds = []string{
	`{"name":"s","title":"t","axis":"cps","values":[1,2],"layout":"contiguous",
		"methods":["tc"],"patterns":["ra"]}`,
	`{"name":"s2","title":"t","axis":"cps","values":[1,2],"axis2":"disks","values2":[2,4],
		"iops":2,"layout":"contiguous","methods":["tc","ddio"],"patterns":["rb"]}`,
	`{"name":"s2","title":"t","axis":"wlrate","values":[100],"axis2":"faultpm","values2":[0,5],
		"layout":"random-blocks","methods":["ddio"],"patterns":["rb"],
		"faults":{"retry_limit":2},
		"workload":{"phases":[{"pattern":"uniform","requests":8,"arrival":"poisson","rate_per_sec":100}]}}`,
	// Malformed axis pairs: each must parse to a *SpecError, never panic.
	`{"name":"x","title":"t","axis":"cps","values":[1],"values2":[2],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	`{"name":"x","title":"t","axis":"cps","values":[1],"axis2":"cps","values2":[2],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	`{"name":"x","title":"t","axis":"cps","values":[1],"axis2":"warp","values2":[2],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	`{"name":"x","title":"t","axis":"cps","values":[1],"axis2":"disks","values2":[],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	`{"name":"x","title":"t","axis":"cps","values":[1],"axis2":"disks","values2":[0],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	`{"name":"x","title":"t","axis":"cps","values":[1],"axis2":"faultpm","values2":[5],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	``,
	`{`,
	`{}`,
	`null`,
	`[]`,
	`{"name":"x","axis":"cps","values":[1],"layout":"contiguous","methods":["tc"],
		"patterns":["ra"],"bogus":1}`,
	`{"name":"x","title":"t","axis":"cps","values":[99999999999999999999],
		"layout":"contiguous","methods":["tc"],"patterns":["ra"]}`,
	// The pattern axis: a valid grid, and one that wrongly sets values.
	`{"name":"g","title":"t","axis":"pattern","layout":"random-blocks",
		"methods":["tc","ddio-sort"],"patterns":["ra","wc"],"record":8}`,
	`{"name":"g","title":"t","axis":"pattern","values":[1],"layout":"random-blocks",
		"methods":["tc"],"patterns":["ra"]}`,
}

func FuzzParseSweepSpec(f *testing.F) {
	for _, seed := range specSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSweepSpec(data)
		if err != nil {
			// Typed or not, an error return is a correct rejection; the
			// As call itself must not panic on wrapped chains.
			var specErr *SpecError
			_ = errors.As(err, &specErr)
			return
		}
		// A spec that parsed is valid by construction; expanding it must
		// not panic. Bound the grid so a fuzz-found "valid but huge"
		// spec costs allocation, not minutes.
		n := max(len(s.Values), 1) * len(s.Methods) * len(s.Patterns) // the pattern axis has no values
		if len(s.Values2) > 0 {
			n *= len(s.Values2)
		}
		if n > 256 {
			t.Skip("valid spec, grid too large to expand in fuzz")
		}
		if _, _, err := s.Expand(Options{Trials: 1, FileBytes: MiB, Seed: 1}); err != nil {
			t.Fatalf("valid spec failed to expand: %v", err)
		}
	})
}

// TestSpecSeedsTyped pins that every malformed axis-pair seed rejects
// with the typed *SpecError (the structural-junk seeds reject with
// ordinary errors).
func TestSpecSeedsTyped(t *testing.T) {
	for _, seed := range specSeeds[3:8] {
		_, err := ParseSweepSpec([]byte(seed))
		if err == nil {
			t.Errorf("accepted malformed axis pair: %s", seed)
			continue
		}
		var specErr *SpecError
		if !errors.As(err, &specErr) {
			t.Errorf("error %v is not a *SpecError for: %s", err, seed)
		}
	}
}

package sim

import (
	"hash/fnv"
	"math/rand"
)

// Rand is the kernel's deterministic random source; it is a thin wrapper
// over math/rand with support for deriving independent sub-streams, so
// that, e.g., the disk-layout stream and the network-jitter stream of one
// trial do not perturb each other when one of them draws more values.
type Rand struct {
	*rand.Rand
	seed int64
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed the source was created with. Draws do not
// change it, and Stream derives from it alone.
func (r *Rand) Seed() int64 { return r.seed }

// Stream derives an independent sub-stream identified by label. The
// derivation hashes (seed, label), so streams are stable across runs and
// insensitive to the order in which other streams are used.
func (r *Rand) Stream(label string) *Rand {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(r.seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return NewRand(int64(h.Sum64()))
}

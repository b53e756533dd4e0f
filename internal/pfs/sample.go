package pfs

import "ddio/internal/sim"

// sampleSlots fills out with len(out) distinct integers drawn uniformly
// at random from [0, n), in the order a Fisher–Yates shuffle of [0, n)
// would emit its first len(out) elements. It runs in O(len(out)) time
// and space by keeping only the shuffled prefix and the displaced
// entries in the sparse map displaced, which must be empty, instead of
// materializing (and permuting) all n slots the way rng.Perm(n)[:k]
// does. For a file of a few dozen blocks per disk on a ~165k-slot
// HP 97560, that turns layout setup from O(disk) into O(transfer).
func sampleSlots(r *sim.Rand, n int64, out []int64, displaced map[int64]int64) {
	k := int64(len(out))
	if k > n {
		panic("pfs: sample larger than population")
	}
	for i := int64(0); i < k; i++ {
		j := i + r.Int63n(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
}

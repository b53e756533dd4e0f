// Package hpf implements the High Performance Fortran array
// distributions the paper uses as file-access patterns (Figure 2):
// NONE, BLOCK, and CYCLIC in each dimension of a row-major matrix of
// fixed-size records, plus the special ALL pattern (every CP reads the
// whole file). It answers the two questions both file systems need:
//
//   - per CP: the list of maximal contiguous file chunks it owns, with
//     their offsets in the CP's (contiguous) memory buffer — what a
//     traditional-caching client iterates over, one request per chunk;
//   - per file range: the list of (CP, memory offset) runs covering the
//     range — what a disk-directed IOP computes for each disk block.
package hpf

import "fmt"

// DistKind is an HPF distribution kind for one dimension.
type DistKind int

// Distribution kinds.
const (
	// None leaves the dimension undistributed: processor 0 of the
	// dimension owns the whole extent.
	None DistKind = iota
	// Block gives each processor one contiguous range of ceil(N/P)
	// indices.
	Block
	// Cyclic deals indices round-robin.
	Cyclic
)

func (k DistKind) String() string {
	switch k {
	case None:
		return "NONE"
	case Block:
		return "BLOCK"
	case Cyclic:
		return "CYCLIC"
	default:
		return fmt.Sprintf("DistKind(%d)", int(k))
	}
}

// Dim describes the distribution of one dimension of extent N over P
// processors. None requires P == 1.
type Dim struct {
	N    int
	P    int
	Kind DistKind
}

// blockSize is the HPF block size ceil(N/P).
func (d Dim) blockSize() int { return (d.N + d.P - 1) / d.P }

// Owner returns the processor (within this dimension) owning index i.
func (d Dim) Owner(i int) int {
	switch d.Kind {
	case None:
		return 0
	case Block:
		return i / d.blockSize()
	case Cyclic:
		return i % d.P
	}
	panic("hpf: bad DistKind")
}

// Local returns the index of i within its owner's local sequence.
func (d Dim) Local(i int) int {
	switch d.Kind {
	case None:
		return i
	case Block:
		return i % d.blockSize()
	case Cyclic:
		return i / d.P
	}
	panic("hpf: bad DistKind")
}

// Count returns how many indices processor p owns.
func (d Dim) Count(p int) int {
	switch d.Kind {
	case None:
		if p == 0 {
			return d.N
		}
		return 0
	case Block:
		bs := d.blockSize()
		n := d.N - p*bs
		if n < 0 {
			return 0
		}
		if n > bs {
			return bs
		}
		return n
	case Cyclic:
		if p >= d.N {
			return 0
		}
		return (d.N-p-1)/d.P + 1
	}
	panic("hpf: bad DistKind")
}

// validate panics on malformed dimensions; used by Decomp constructors.
func (d Dim) validate(name string) error {
	if d.N < 1 {
		return fmt.Errorf("hpf: %s extent %d < 1", name, d.N)
	}
	if d.P < 1 {
		return fmt.Errorf("hpf: %s processors %d < 1", name, d.P)
	}
	if d.Kind == None && d.P != 1 {
		return fmt.Errorf("hpf: %s NONE distribution requires P == 1, got %d", name, d.P)
	}
	return nil
}

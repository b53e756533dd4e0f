package hpf

import "fmt"

// Decomp is a concrete decomposition of a row-major matrix of records
// over a grid of CPs. The special All form sends every record to every
// CP (the paper's "ra" pattern).
type Decomp struct {
	Rows, Cols Dim
	RecordSize int
	NCP        int  // total CPs participating (>= Rows.P * Cols.P)
	All        bool // every CP receives the whole file
}

// New2D builds a decomposition of a rows×cols record matrix over a
// Rows.P × Cols.P processor grid within ncp CPs.
func New2D(rows, cols Dim, recordSize, ncp int) (*Decomp, error) {
	if err := rows.validate("rows"); err != nil {
		return nil, err
	}
	if err := cols.validate("cols"); err != nil {
		return nil, err
	}
	if recordSize < 1 {
		return nil, fmt.Errorf("hpf: record size %d < 1", recordSize)
	}
	if rows.P*cols.P > ncp {
		return nil, fmt.Errorf("hpf: grid %dx%d exceeds %d CPs", rows.P, cols.P, ncp)
	}
	return &Decomp{Rows: rows, Cols: cols, RecordSize: recordSize, NCP: ncp}, nil
}

// New1D builds a decomposition of a vector of n records over ncp CPs.
func New1D(n int, kind DistKind, recordSize, ncp int) (*Decomp, error) {
	p := ncp
	if kind == None {
		p = 1
	}
	return New2D(Dim{N: 1, P: 1, Kind: None}, Dim{N: n, P: p, Kind: kind}, recordSize, ncp)
}

// NewAll builds the ALL decomposition: every CP receives all n records.
func NewAll(n, recordSize, ncp int) (*Decomp, error) {
	d, err := New1D(n, None, recordSize, ncp)
	if err != nil {
		return nil, err
	}
	d.All = true
	return d, nil
}

// NumRecords returns the matrix size in records.
func (d *Decomp) NumRecords() int { return d.Rows.N * d.Cols.N }

// FileBytes returns the matrix size in bytes.
func (d *Decomp) FileBytes() int64 {
	return int64(d.NumRecords()) * int64(d.RecordSize)
}

// cp composes a grid position into a CP index.
func (d *Decomp) cp(pr, pc int) int { return pr*d.Cols.P + pc }

// gridOf decomposes a CP index into its grid position.
func (d *Decomp) gridOf(cp int) (pr, pc int) { return cp / d.Cols.P, cp % d.Cols.P }

// Owner returns the CP owning record r. It must not be called on an All
// decomposition (every CP owns every record there).
func (d *Decomp) Owner(r int) int {
	if d.All {
		panic("hpf: Owner undefined for ALL decomposition")
	}
	i, j := r/d.Cols.N, r%d.Cols.N
	return d.cp(d.Rows.Owner(i), d.Cols.Owner(j))
}

// MemOffset returns the byte offset of record r within its owner's
// contiguous memory buffer. For All decompositions the buffer mirrors
// the file, so the offset equals the file offset.
func (d *Decomp) MemOffset(r int) int64 {
	if d.All {
		return int64(r) * int64(d.RecordSize)
	}
	i, j := r/d.Cols.N, r%d.Cols.N
	_, pc := d.gridOf(d.Owner(r))
	localCols := d.Cols.Count(pc)
	li, lj := d.Rows.Local(i), d.Cols.Local(j)
	return (int64(li)*int64(localCols) + int64(lj)) * int64(d.RecordSize)
}

// CPBytes returns the size of cp's memory buffer in bytes.
func (d *Decomp) CPBytes(cp int) int64 {
	if d.All {
		return d.FileBytes()
	}
	if cp >= d.Rows.P*d.Cols.P {
		return 0 // CPs outside the grid hold nothing
	}
	pr, pc := d.gridOf(cp)
	return int64(d.Rows.Count(pr)) * int64(d.Cols.Count(pc)) * int64(d.RecordSize)
}

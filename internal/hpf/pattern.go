package hpf

import "fmt"

// Pattern names an access pattern in the paper's shorthand: 'r' or 'w'
// followed by the distribution of each dimension — one letter for a
// vector ("rb"), two for a matrix, rows first ("rcb"), or 'a' for ALL
// ("ra"). Examples (Figure 2): rn, rb, rc, ra, rnb, rbb, rcb, rbc, rcc,
// rcn.
type Pattern struct {
	Name    string
	Write   bool
	All     bool
	TwoD    bool
	RowKind DistKind // meaningful when TwoD
	ColKind DistKind // the only distributed kind when !TwoD && !All
}

// ParsePattern parses a pattern name.
func ParsePattern(name string) (Pattern, error) {
	p := Pattern{Name: name}
	if len(name) < 2 || len(name) > 3 {
		return p, fmt.Errorf("hpf: bad pattern %q", name)
	}
	switch name[0] {
	case 'r':
	case 'w':
		p.Write = true
	default:
		return p, fmt.Errorf("hpf: pattern %q must start with r or w", name)
	}
	kind := func(c byte) (DistKind, error) {
		switch c {
		case 'n':
			return None, nil
		case 'b':
			return Block, nil
		case 'c':
			return Cyclic, nil
		}
		return 0, fmt.Errorf("hpf: bad distribution letter %q in %q", string(c), name)
	}
	switch len(name) {
	case 2:
		if name[1] == 'a' {
			if p.Write {
				return p, fmt.Errorf("hpf: pattern wa (all CPs write everything) is not defined")
			}
			p.All = true
			return p, nil
		}
		k, err := kind(name[1])
		if err != nil {
			return p, err
		}
		p.ColKind = k
		return p, nil
	case 3:
		rk, err := kind(name[1])
		if err != nil {
			return p, err
		}
		ck, err := kind(name[2])
		if err != nil {
			return p, err
		}
		p.TwoD = true
		p.RowKind = rk
		p.ColKind = ck
		return p, nil
	}
	return p, fmt.Errorf("hpf: bad pattern %q", name)
}

// Decomp instantiates the pattern for a file of fileBytes bytes of
// recordSize-byte records distributed over ncp CPs. Matrix shapes and
// processor grids are chosen as the paper does: the matrix is made as
// square as possible (power-of-two rows), and a 2-D grid as square as
// possible, with NONE dimensions taking a single processor row/column.
func (p Pattern) Decomp(fileBytes int64, recordSize, ncp int) (*Decomp, error) {
	if fileBytes%int64(recordSize) != 0 {
		return nil, fmt.Errorf("hpf: file size %d not a multiple of record size %d", fileBytes, recordSize)
	}
	records := int(fileBytes / int64(recordSize))
	if p.All {
		return NewAll(records, recordSize, ncp)
	}
	if !p.TwoD {
		return New1D(records, p.ColKind, recordSize, ncp)
	}
	rows, cols, err := MatrixDims(records)
	if err != nil {
		return nil, err
	}
	pr, pc := GridDims(ncp, p.RowKind, p.ColKind)
	rd := Dim{N: rows, P: pr, Kind: p.RowKind}
	cd := Dim{N: cols, P: pc, Kind: p.ColKind}
	return New2D(rd, cd, recordSize, ncp)
}

// MatrixDims picks the matrix shape for a record count: the largest
// power-of-two divisor of records that does not exceed sqrt(records)
// becomes the row count (e.g. 1,310,720 records -> 1024×1280;
// 1280 -> 32×40). Falls back to the largest divisor <= sqrt.
func MatrixDims(records int) (rows, cols int, err error) {
	if records < 1 {
		return 0, 0, fmt.Errorf("hpf: no records")
	}
	best := 1
	for r := 1; r*r <= records; r *= 2 {
		if records%r == 0 {
			best = r
		}
	}
	for r := best; r*r <= records; r++ {
		if records%r == 0 && isPow2(r) {
			best = r
		}
	}
	if best == 1 {
		for r := 1; r*r <= records; r++ {
			if records%r == 0 {
				best = r
			}
		}
	}
	return best, records / best, nil
}

// GridDims splits ncp processors over the two dimensions: a NONE
// dimension gets one processor; two distributed dimensions split ncp as
// squarely as possible (power-of-two rows).
func GridDims(ncp int, rowKind, colKind DistKind) (pr, pc int) {
	switch {
	case rowKind == None && colKind == None:
		return 1, 1
	case rowKind == None:
		return 1, ncp
	case colKind == None:
		return ncp, 1
	}
	pr = 1
	for r := 1; r*r <= ncp; r *= 2 {
		if ncp%r == 0 {
			pr = r
		}
	}
	return pr, ncp / pr
}

func isPow2(x int) bool { return x > 0 && x&(x-1) == 0 }

// ReadPatterns returns the paper's Figure 3/4 read patterns in display
// order.
func ReadPatterns() []string {
	return []string{"ra", "rn", "rb", "rc", "rnb", "rbb", "rcb", "rbc", "rcc", "rcn"}
}

// WritePatterns returns the paper's Figure 3/4 write patterns in display
// order.
func WritePatterns() []string {
	return []string{"wn", "wb", "wc", "wnb", "wbb", "wcb", "wbc", "wcc", "wcn"}
}

// AllPatterns returns every pattern used in Figures 3 and 4.
func AllPatterns() []string {
	return append(ReadPatterns(), WritePatterns()...)
}

// Package linalg is the sparse linear-algebra substrate for the spectral
// fraud-detection baselines (SPOKEN and FBOX). It provides a CSR sparse
// matrix with mat-vec products, small dense matrices with a modified
// Gram-Schmidt QR, a symmetric Jacobi eigensolver, and a deterministic
// randomized truncated SVD built from those parts. Only the standard
// library is used.
package linalg

import "fmt"

// Entry is one nonzero of a sparse matrix.
type Entry struct {
	Row, Col uint32
	Val      float64
}

// Sparse is an immutable CSR matrix.
type Sparse struct {
	rows, cols int
	rowOff     []int
	colIdx     []uint32
	vals       []float64
}

// NewSparse builds a rows×cols CSR matrix from entries. Duplicate (row, col)
// entries are summed. Entries out of range yield an error.
func NewSparse(rows, cols int, entries []Entry) (*Sparse, error) {
	for _, e := range entries {
		if int(e.Row) >= rows || int(e.Col) >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	counts := make([]int, rows+1)
	for _, e := range entries {
		counts[e.Row+1]++
	}
	for i := 1; i <= rows; i++ {
		counts[i] += counts[i-1]
	}
	colIdx := make([]uint32, len(entries))
	vals := make([]float64, len(entries))
	cur := make([]int, rows)
	for _, e := range entries {
		p := counts[e.Row] + cur[e.Row]
		colIdx[p] = e.Col
		vals[p] = e.Val
		cur[e.Row]++
	}
	m := &Sparse{rows: rows, cols: cols, rowOff: counts, colIdx: colIdx, vals: vals}
	m.sumDuplicates()
	return m, nil
}

// sumDuplicates merges repeated columns within each row in place.
func (m *Sparse) sumDuplicates() {
	newColIdx := m.colIdx[:0]
	newVals := m.vals[:0]
	newOff := make([]int, m.rows+1)
	for r := 0; r < m.rows; r++ {
		start, end := m.rowOff[r], m.rowOff[r+1]
		// insertion sort the row (rows are short in our workloads)
		row := make(map[uint32]float64, end-start)
		var order []uint32
		for p := start; p < end; p++ {
			c := m.colIdx[p]
			if _, ok := row[c]; !ok {
				order = append(order, c)
			}
			row[c] += m.vals[p]
		}
		sortU32(order)
		for _, c := range order {
			newColIdx = append(newColIdx, c)
			newVals = append(newVals, row[c])
		}
		newOff[r+1] = len(newColIdx)
	}
	m.colIdx = newColIdx
	m.vals = newVals
	m.rowOff = newOff
}

func sortU32(a []uint32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Rows returns the number of rows.
func (m *Sparse) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Sparse) Cols() int { return m.cols }

// NNZ returns the number of stored nonzeros.
func (m *Sparse) NNZ() int { return len(m.vals) }

// MulVec computes dst = A·x. dst must have length Rows, x length Cols.
func (m *Sparse) MulVec(dst, x []float64) {
	if len(dst) != m.rows || len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dims dst=%d x=%d for %dx%d", len(dst), len(x), m.rows, m.cols))
	}
	for r := 0; r < m.rows; r++ {
		s := 0.0
		for p := m.rowOff[r]; p < m.rowOff[r+1]; p++ {
			s += m.vals[p] * x[m.colIdx[p]]
		}
		dst[r] = s
	}
}

// MulTVec computes dst = Aᵀ·x. dst must have length Cols, x length Rows.
func (m *Sparse) MulTVec(dst, x []float64) {
	if len(dst) != m.cols || len(x) != m.rows {
		panic(fmt.Sprintf("linalg: MulTVec dims dst=%d x=%d for %dx%d", len(dst), len(x), m.rows, m.cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for p := m.rowOff[r]; p < m.rowOff[r+1]; p++ {
			dst[m.colIdx[p]] += m.vals[p] * xr
		}
	}
}

// RowNorm2 returns the Euclidean norm of row r.
func (m *Sparse) RowNorm2(r int) float64 {
	s := 0.0
	for p := m.rowOff[r]; p < m.rowOff[r+1]; p++ {
		s += m.vals[p] * m.vals[p]
	}
	return sqrt(s)
}

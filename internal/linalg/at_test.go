package linalg

// At returns the (r, c) element; O(row length).
func (m *Sparse) At(r, c int) float64 {
	for p := m.rowOff[r]; p < m.rowOff[r+1]; p++ {
		if int(m.colIdx[p]) == c {
			return m.vals[p]
		}
	}
	return 0
}

package spectral

import (
	"math"
	"testing"

	"ensemfdet/internal/bipartite"
)

func TestAdjacency(t *testing.T) {
	b := bipartite.NewBuilder()
	b.AddEdge(0, 1)
	b.AddEdge(2, 0)
	g := b.Build()
	m := Adjacency(g)
	if m.Rows() != g.NumUsers() || m.Cols() != g.NumMerchants() {
		t.Fatalf("dims %dx%d, want %dx%d", m.Rows(), m.Cols(), g.NumUsers(), g.NumMerchants())
	}
	// at reads entry (r, c) as row r of the product with unit vector c.
	at := func(r, c int) float64 {
		x, y := make([]float64, m.Cols()), make([]float64, m.Rows())
		x[c] = 1
		m.MulVec(y, x)
		return y[r]
	}
	if at(0, 1) != 1 || at(2, 0) != 1 || at(0, 0) != 0 {
		t.Error("adjacency entries wrong")
	}
	if m.NNZ() != g.NumEdges() {
		t.Errorf("nnz = %d, want %d", m.NNZ(), g.NumEdges())
	}
}

func TestDecomposeFullBlock(t *testing.T) {
	// A full n×m all-ones block has a single nonzero singular value
	// sqrt(n·m).
	b := bipartite.NewBuilderSized(6, 4, 24)
	for u := 0; u < 6; u++ {
		for v := 0; v < 4; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	svd := Decompose(b.Build(), 2, 1)
	want := math.Sqrt(24)
	if math.Abs(svd.S[0]-want) > 1e-8 {
		t.Errorf("σ1 = %g, want %g", svd.S[0], want)
	}
	if svd.S[1] > 1e-8 {
		t.Errorf("σ2 = %g, want ~0", svd.S[1])
	}
}

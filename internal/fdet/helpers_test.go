package fdet

import (
	"math"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
)

// Reference helpers the tests check the production paths against.

// SecondDifferences returns Δ²φ for each interior index of scores, the
// values TruncatingPoint minimizes.
func SecondDifferences(scores []float64) []float64 {
	if len(scores) < 3 {
		return nil
	}
	out := make([]float64, len(scores)-2)
	for i := 1; i+1 < len(scores); i++ {
		out[i-1] = scores[i+1] - float64(2*scores[i]) + scores[i-1]
	}
	return out
}

// Peel runs a single densest-block peeling round on g (no edge removal, no
// truncation). It returns ok=false when g has no edges.
func Peel(g *bipartite.Graph, metric density.Metric) (Block, bool) {
	var p peeler
	p.reset(g, metric.MerchantWeights(g))
	ref, ok := p.peelOnce()
	if !ok {
		return Block{}, false
	}
	return p.block(ref), true
}

// DetectedUsers returns the union of user ids over retained blocks, sorted
// ascending.
func (r Result) DetectedUsers() []uint32 { return unionIDs(r.Blocks, true) }

// DetectedMerchants returns the union of merchant ids over retained blocks,
// sorted ascending.
func (r Result) DetectedMerchants() []uint32 { return unionIDs(r.Blocks, false) }

// unionIDs unions one side's ids over blocks. Block ids are dense local ids
// of the peeled (sub)graph, so a membership slice sized to the largest id
// marks them, and scanning it in order makes the output sorted.
func unionIDs(blocks []Block, users bool) []uint32 {
	maxID := -1
	for _, b := range blocks {
		ids := b.Users
		if !users {
			ids = b.Merchants
		}
		for _, id := range ids {
			if int(id) > maxID {
				maxID = int(id)
			}
		}
	}
	if maxID < 0 {
		return nil
	}
	seen := make([]bool, maxID+1)
	n := 0
	for _, b := range blocks {
		ids := b.Users
		if !users {
			ids = b.Merchants
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				n++
			}
		}
	}
	out := make([]uint32, 0, n)
	for id, ok := range seen {
		if ok {
			out = append(out, uint32(id))
		}
	}
	return out
}

// scoreSubset computes φ of the subgraph induced by the given node subset
// of g, with weights taken from g itself, in O(Σ deg(u)) over the selected
// users: the direct score a peeled block's incremental score must equal.
func scoreSubset(g *bipartite.Graph, m density.Metric, users, merchants []uint32) float64 {
	n := len(users) + len(merchants)
	if n == 0 {
		return 0
	}
	w := m.MerchantWeights(g)
	inMerch := make(map[uint32]bool, len(merchants))
	for _, v := range merchants {
		inMerch[v] = true
	}
	total := 0.0
	seen := make(map[uint32]bool, len(users))
	for _, u := range users {
		if seen[u] {
			continue
		}
		seen[u] = true
		for _, v := range g.UserNeighbors(u) {
			if inMerch[v] {
				total += w[v]
			}
		}
	}
	return total / float64(n)
}

func TestScoreSubsetMatchesWhole(t *testing.T) {
	g := biclique(3, 3)
	all := []uint32{0, 1, 2}
	whole := density.Score(g, density.Default())
	if sub := scoreSubset(g, density.Default(), all, all); math.Abs(whole-sub) > 1e-12 {
		t.Errorf("whole = %g, subset-of-everything = %g", whole, sub)
	}
	if scoreSubset(g, density.Default(), nil, nil) != 0 {
		t.Error("empty subset score != 0")
	}
}

func TestScoreSubsetDenser(t *testing.T) {
	// A dense block embedded in a sparse background must out-score the whole
	// graph.
	b := bipartite.NewBuilderSized(20, 20, 0)
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	for u := 5; u < 20; u++ {
		b.AddEdge(uint32(u), uint32(u))
	}
	g := b.Build()
	blockScore := scoreSubset(g, density.Default(), []uint32{0, 1, 2, 3, 4}, []uint32{0, 1, 2, 3, 4})
	if wholeScore := density.Score(g, density.Default()); blockScore <= wholeScore {
		t.Errorf("block %g not denser than whole %g", blockScore, wholeScore)
	}
}

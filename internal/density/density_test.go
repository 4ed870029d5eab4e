package density

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ensemfdet/internal/bipartite"
)

func block(t *testing.T, nu, nm int) *bipartite.Graph {
	t.Helper()
	b := bipartite.NewBuilderSized(nu, nm, nu*nm)
	for u := 0; u < nu; u++ {
		for v := 0; v < nm; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	return b.Build()
}

func TestColumnWeightedWeights(t *testing.T) {
	g := block(t, 3, 2) // each merchant has degree 3
	w := ColumnWeighted{C: 5}.MerchantWeights(g)
	want := 1 / math.Log(8)
	for v, got := range w {
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("w[%d] = %g, want %g", v, got, want)
		}
	}
}

func TestColumnWeightedDefaultC(t *testing.T) {
	g := block(t, 1, 1)
	w := ColumnWeighted{}.MerchantWeights(g) // C=0 → DefaultC
	want := 1 / math.Log(1+DefaultC)
	if math.Abs(w[0]-want) > 1e-12 {
		t.Errorf("w = %g, want %g (DefaultC)", w[0], want)
	}
}

func TestAvgDegreeScore(t *testing.T) {
	g := block(t, 4, 4) // 16 edges, 8 nodes
	if got, want := Score(g, AvgDegree{}), 2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Score = %g, want %g", got, want)
	}
}

func TestScoreEmptyGraph(t *testing.T) {
	g := bipartite.NewBuilder().Build()
	if Score(g, Default()) != 0 {
		t.Error("empty graph score != 0")
	}
}

func TestCamouflageResistance(t *testing.T) {
	// The column-weighted metric must rank a clean dense block above an
	// equally dense block whose merchants are also hit by heavy camouflage
	// traffic; the unweighted metric cannot tell them apart. This is the
	// stated purpose of Definition 2's penalty.
	b := bipartite.NewBuilderSized(210, 10, 0)
	// Block A: users 0..4 x merchants 0..4 (clean, merchant degree stays 5).
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	// Block B: users 5..9 x merchants 5..9, plus 200 background users on
	// each of those merchants (popular merchants used as camouflage).
	for u := 5; u < 10; u++ {
		for v := 5; v < 10; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	for u := 10; u < 210; u++ {
		for v := 5; v < 10; v++ {
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	g := b.Build()
	// Both blocks are complete 5 x 5, so each one's φ is 5·Σw over its
	// merchants divided by its 10 nodes, with the weights taken from g.
	blockScore := func(m Metric, merchants []uint32) float64 {
		w := m.MerchantWeights(g)
		sum := 0.0
		for _, v := range merchants {
			sum += w[v]
		}
		return 5 * sum / 10
	}
	merchA, merchB := []uint32{0, 1, 2, 3, 4}, []uint32{5, 6, 7, 8, 9}
	a, bb := blockScore(Default(), merchA), blockScore(Default(), merchB)
	if a <= bb {
		t.Errorf("column-weighted: clean block %g should out-score camouflaged block %g", a, bb)
	}
	ua, ub := blockScore(AvgDegree{}, merchA), blockScore(AvgDegree{}, merchB)
	if math.Abs(ua-ub) > 1e-12 {
		t.Errorf("avg-degree should not distinguish the blocks: %g vs %g", ua, ub)
	}
}

func TestPropertyWeightsPositiveFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 1+rng.Intn(20), 1+rng.Intn(20)
		bld := bipartite.NewBuilderSized(nu, nm, 0)
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			bld.AddEdge(uint32(rng.Intn(nu)), uint32(rng.Intn(nm)))
		}
		g := bld.Build()
		for _, m := range []Metric{Default(), AvgDegree{}, ColumnWeighted{C: 2}} {
			for _, w := range m.MerchantWeights(g) {
				if !(w > 0) || math.IsInf(w, 0) || math.IsNaN(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScoreNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 1+rng.Intn(20), 1+rng.Intn(20)
		bld := bipartite.NewBuilderSized(nu, nm, 0)
		for i := 0; i < rng.Intn(100); i++ {
			bld.AddEdge(uint32(rng.Intn(nu)), uint32(rng.Intn(nm)))
		}
		g := bld.Build()
		return Score(g, Default()) >= 0 && Score(g, AvgDegree{}) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMetricNames(t *testing.T) {
	if Default().Name() != "column-weighted" {
		t.Errorf("Default name = %q", Default().Name())
	}
	if (AvgDegree{}).Name() != "avg-degree" {
		t.Errorf("AvgDegree name = %q", AvgDegree{}.Name())
	}
}

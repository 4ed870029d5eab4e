// Package spoken implements the SPOKEN baseline (Prakash et al., PAKDD'10;
// paper §II and §V-B2): spectral fraud detection from the "eigenspokes"
// pattern. Pairs of singular vectors of real social/transaction graphs show
// axis-aligned spokes in their EE-plots; nodes far out on a spoke — i.e.
// with a large magnitude in some leading singular vector — belong to
// near-cliques and are flagged as suspicious.
//
// The paper runs SPOKEN with 25 components; Config.Components defaults to
// that value.
package spoken

import (
	"math"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/spectral"
)

// DefaultComponents matches the paper's experimental setting (§V-B2).
const DefaultComponents = 25

// Config parameterizes SPOKEN.
type Config struct {
	// Components is the number of leading singular vector pairs inspected;
	// 0 means DefaultComponents.
	Components int
	// Seed makes the decomposition deterministic.
	Seed int64
}

func (c Config) components() int {
	if c.Components <= 0 {
		return DefaultComponents
	}
	return c.Components
}

// Result carries per-node spoke scores; higher is more suspicious. Scores
// are comparable across nodes of the same side only.
type Result struct {
	UserScores     []float64
	MerchantScores []float64
}

// Score computes eigenspoke scores for every node: the maximum magnitude of
// the node's coordinate across the leading singular vectors. Nodes deep in a
// spoke dominate one singular direction and receive scores near 1; bulk
// nodes spread thinly over all directions and score near 0.
func Score(g *bipartite.Graph, cfg Config) Result {
	res := Result{
		UserScores:     make([]float64, g.NumUsers()),
		MerchantScores: make([]float64, g.NumMerchants()),
	}
	if g.NumEdges() == 0 {
		return res
	}
	svd := spectral.Decompose(g, cfg.components(), cfg.Seed)
	for c := 0; c < svd.Rank(); c++ {
		if svd.S[c] <= 0 {
			continue
		}
		uc := svd.U.Col(c)
		for u, x := range uc {
			if a := math.Abs(x); a > res.UserScores[u] {
				res.UserScores[u] = a
			}
		}
		vc := svd.V.Col(c)
		for v, x := range vc {
			if a := math.Abs(x); a > res.MerchantScores[v] {
				res.MerchantScores[v] = a
			}
		}
	}
	return res
}

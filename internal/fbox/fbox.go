// Package fbox implements the FBOX baseline (Shah et al., ICDM'14; paper §II
// and §V-B2): an adversarial spectral detector built on the reconstruction
// error of the truncated SVD. Fraud blocks that are too small to surface in
// the top-k spectral components are nearly invisible to the reconstruction:
// a fraud account's adjacency row projects onto the top-k subspace with far
// less mass than an honest account of the same degree. FBOX flags the nodes
// whose reconstructed degree falls below a low percentile of what their
// observed degree predicts.
package fbox

import (
	"math"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/spectral"
)

// DefaultK is the number of SVD components; the paper's setup ties it to
// SPOKEN's 25 components.
const DefaultK = 25

// Config parameterizes FBOX.
type Config struct {
	// K is the truncation rank of the SVD; 0 means DefaultK.
	K int
	// Seed makes the decomposition deterministic.
	Seed int64
	// MinDegree excludes users with fewer edges from scoring (their
	// reconstruction is meaningless); 0 means 1.
	MinDegree int
}

func (c Config) k() int {
	if c.K <= 0 {
		return DefaultK
	}
	return c.K
}

func (c Config) minDegree() int {
	if c.MinDegree <= 0 {
		return 1
	}
	return c.MinDegree
}

// Result carries per-user suspiciousness scores in [0, 1]: 1 − ‖recon‖/‖row‖.
// A score near 1 means the user is invisible to the top-k decomposition
// (suspicious); near 0 means well explained. Users below MinDegree score
// NaN and are excluded from thresholding.
type Result struct {
	UserScores []float64
}

// Score computes FBOX suspiciousness for every user.
func Score(g *bipartite.Graph, cfg Config) Result {
	nu := g.NumUsers()
	res := Result{
		UserScores: make([]float64, nu),
	}
	for u := range res.UserScores {
		res.UserScores[u] = math.NaN()
	}
	if g.NumEdges() == 0 {
		return res
	}
	adj := spectral.Adjacency(g)
	svd := spectral.Decompose(g, cfg.k(), cfg.Seed)
	minDeg := cfg.minDegree()
	for u := 0; u < nu; u++ {
		if g.UserDegree(uint32(u)) < minDeg {
			continue
		}
		actual := adj.RowNorm2(u) // = sqrt(degree) for a 0/1 row
		recon := svd.ReconstructedRowNorm(u)
		ratio := recon / actual
		if ratio > 1 {
			ratio = 1 // numerical overshoot
		}
		res.UserScores[u] = 1 - ratio
	}
	return res
}

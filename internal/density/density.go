// Package density implements the graph density scores used to rank fraud
// blocks (paper §III-B, Definition 2).
//
// Definition 2 as printed compresses the FRAUDAR metric it cites: the density
// score of a node subset S is the column-weighted edge mass of the subgraph
// divided by the number of nodes,
//
//	φ(S) = (1/|S|) · Σ_{(i,j) ∈ E(S)} w(j),   w(j) = 1 / log(d_j + c),
//
// where d_j is merchant j's degree in the graph the detector was handed
// (not the peeled remnant), so that high-degree merchants — the natural
// camouflage targets — contribute little per edge. The plain average-degree
// metric of Charikar (all weights 1) is provided for ablations.
package density

import (
	"math"

	"ensemfdet/internal/bipartite"
)

// Metric assigns a weight to every merchant column; the density score of a
// subgraph is its weighted edge mass divided by its node count. Metrics must
// produce strictly positive, finite weights for any merchant with degree ≥ 1.
type Metric interface {
	// Name identifies the metric in logs and experiment output.
	Name() string
	// MerchantWeights returns w, where edge (u, v) weighs w[v]. The slice
	// has length g.NumMerchants().
	MerchantWeights(g *bipartite.Graph) []float64
}

// ColumnWeighted is the camouflage-resistant FRAUDAR weighting
// w(v) = 1/log(d_v + C). C must satisfy C > 1 so that degree-1 merchants get
// a positive finite weight; the FRAUDAR reference implementation uses C = 5,
// which is the DefaultC here.
type ColumnWeighted struct {
	C float64
}

// DefaultC is the log-shift constant used when ColumnWeighted.C is zero.
const DefaultC = 5.0

// Name implements Metric.
func (ColumnWeighted) Name() string { return "column-weighted" }

// MerchantWeights implements Metric.
func (m ColumnWeighted) MerchantWeights(g *bipartite.Graph) []float64 {
	c := m.C
	if c == 0 {
		c = DefaultC
	}
	w := make([]float64, g.NumMerchants())
	for v := range w {
		w[v] = 1 / math.Log(float64(g.MerchantDegree(uint32(v)))+c)
	}
	return w
}

// AvgDegree is Charikar's unweighted metric: φ(S) = |E(S)| / |S|. It is used
// as an ablation of the column weighting.
type AvgDegree struct{}

// Name implements Metric.
func (AvgDegree) Name() string { return "avg-degree" }

// MerchantWeights implements Metric.
func (AvgDegree) MerchantWeights(g *bipartite.Graph) []float64 {
	w := make([]float64, g.NumMerchants())
	for v := range w {
		w[v] = 1
	}
	return w
}

// Default returns the metric used throughout the paper's experiments.
func Default() Metric { return ColumnWeighted{C: DefaultC} }

// Score computes φ(G) for the whole graph under the metric's weights
// evaluated on the graph itself. An empty graph scores 0.
func Score(g *bipartite.Graph, m Metric) float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return ScoreWithWeights(g, m.MerchantWeights(g))
}

// ScoreWithWeights computes φ(G) with externally supplied merchant weights
// (e.g. weights frozen from a parent graph). An empty graph scores 0.
func ScoreWithWeights(g *bipartite.Graph, w []float64) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	total := 0.0
	for v := 0; v < g.NumMerchants(); v++ {
		// The float64() rounds the product first, so the compiler may not
		// fuse it with the sum into an FMA (Go spec, "Floating-point
		// operators") and the score is the same at every GOAMD64 level.
		total += float64(float64(g.MerchantDegree(uint32(v))) * w[v])
	}
	return total / float64(n)
}

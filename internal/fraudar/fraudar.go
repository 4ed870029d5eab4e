// Package fraudar implements the FRAUDAR baseline (Hooi et al., KDD'16;
// paper §II and §V-B2): global greedy peeling under the camouflage-resistant
// column-weighted density metric. FRAUDAR returns whole dense blocks — every
// node of a detected block is labelled suspicious — and, run for K rounds
// with edge removal between rounds, yields K blocks whose prefix unions form
// the discrete "diamond points" of the paper's Figures 3-4.
//
// The greedy engine is the same one FDET uses (FRAUDAR *is* that greedy,
// which the paper leans on); what differs is the orchestration: the full
// graph instead of samples, a fixed block count K instead of automatic
// truncation, and block-membership labelling instead of vote aggregation.
package fraudar

import (
	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/eval"
	"ensemfdet/internal/fdet"
)

// DefaultK matches the paper's Table III setting ("K is fixed as 30 for
// FRAUDAR").
const DefaultK = 30

// Config parameterizes the baseline.
type Config struct {
	// K is the number of blocks detected; 0 means DefaultK.
	K int
}

func (c Config) k() int {
	if c.K <= 0 {
		return DefaultK
	}
	return c.K
}

// Result holds the detected blocks in detection order (densest first).
type Result struct {
	Blocks []fdet.Block
}

// Detect runs FRAUDAR on the full graph.
func Detect(g *bipartite.Graph, cfg Config) Result {
	res := fdet.Detect(g, fdet.Options{FixedK: cfg.k()})
	return Result{Blocks: res.Blocks}
}

// PrefixUsers returns the union of user ids over the first k blocks — the
// detected set when an operator keeps only the k densest blocks.
func (r Result) PrefixUsers(k int) []uint32 {
	if k > len(r.Blocks) {
		k = len(r.Blocks)
	}
	seen := make(map[uint32]bool)
	var out []uint32
	for _, blk := range r.Blocks[:k] {
		for _, u := range blk.Users {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// Curve evaluates every block-prefix operating point against the labels.
// This is FRAUDAR's entire tunable surface: K discrete points, typically
// with large gaps in |detected| — the practicability drawback the paper's
// Figure 4 illustrates (ENSEMFDET's vote threshold has no such gaps).
func (r Result) Curve(labels *eval.Labels) eval.Curve {
	var curve eval.Curve
	for k := 1; k <= len(r.Blocks); k++ {
		m := eval.Evaluate(labels, r.PrefixUsers(k))
		curve = append(curve, eval.CurvePoint{Metrics: m})
	}
	return curve
}

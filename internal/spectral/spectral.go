// Package spectral holds the shared plumbing of the SVD-based baselines
// (SPOKEN and FBOX): conversion of a bipartite graph to its 0/1 adjacency
// matrix and a cached truncated decomposition of it.
package spectral

import (
	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/linalg"
)

// Adjacency returns the |U|×|V| 0/1 adjacency matrix W of the "who buy-from
// where" graph.
func Adjacency(g *bipartite.Graph) *linalg.Sparse {
	entries := make([]linalg.Entry, 0, g.NumEdges())
	g.Edges(func(e bipartite.Edge) bool {
		entries = append(entries, linalg.Entry{Row: e.U, Col: e.V, Val: 1})
		return true
	})
	m, err := linalg.NewSparse(g.NumUsers(), g.NumMerchants(), entries)
	if err != nil {
		// Graph ids are dense and in range by construction; reaching here
		// means a bipartite invariant was violated upstream.
		panic("spectral: adjacency conversion failed: " + err.Error())
	}
	return m
}

// powerIters is the randomized SVD's power-iteration count: 2-4 suffices
// for the sharply decaying spectra of fraud graphs.
const powerIters = 3

// Decompose computes the rank-k truncated SVD of g's adjacency matrix.
func Decompose(g *bipartite.Graph, k int, seed int64) linalg.SVDResult {
	return linalg.TruncatedSVD(Adjacency(g), k, powerIters, seed)
}

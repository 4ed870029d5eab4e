package bipartite

import "sort"

// Side selects one of the two node types of a bipartite graph.
type Side int

const (
	// UserSide selects the user (PIN) nodes.
	UserSide Side = iota
	// MerchantSide selects the merchant nodes.
	MerchantSide
)

// String implements fmt.Stringer.
func (s Side) String() string {
	switch s {
	case UserSide:
		return "user"
	case MerchantSide:
		return "merchant"
	default:
		return "invalid-side"
	}
}

// NumNodesOn returns the number of nodes on the given side.
func (g *Graph) NumNodesOn(side Side) int {
	if side == UserSide {
		return g.NumUsers()
	}
	return g.NumMerchants()
}

// Degree returns the degree of node id on the given side.
func (g *Graph) Degree(side Side, id uint32) int {
	if side == UserSide {
		return g.UserDegree(id)
	}
	return g.MerchantDegree(id)
}

// AvgDegree returns the average degree of the given side, 0 for an empty side.
// The paper's ONS side-selection rule (§IV-A3 "Retain topology") compares
// Davg(V) against Davg(U).
func (g *Graph) AvgDegree(side Side) float64 {
	n := g.NumNodesOn(side)
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// DegreeHistogram returns fD, the count of nodes with each degree on the
// given side: hist[q] is the number of nodes of degree q. Used by the
// sampling-theory helpers for Eq. 3.
func (g *Graph) DegreeHistogram(side Side) []int {
	n := g.NumNodesOn(side)
	maxDeg := 0
	for i := 0; i < n; i++ {
		if d := g.Degree(side, uint32(i)); d > maxDeg {
			maxDeg = d
		}
	}
	hist := make([]int, maxDeg+1)
	for i := 0; i < n; i++ {
		hist[g.Degree(side, uint32(i))]++
	}
	return hist
}

// MaxDegree returns the maximum degree on the given side, 0 for an empty side.
func (g *Graph) MaxDegree(side Side) int {
	maxDeg := 0
	for i := 0; i < g.NumNodesOn(side); i++ {
		if d := g.Degree(side, uint32(i)); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// DegreeQuantile returns the q-quantile (0 ≤ q ≤ 1) of the degree
// distribution on the given side, using the nearest-rank method.
func (g *Graph) DegreeQuantile(side Side, q float64) int {
	n := g.NumNodesOn(side)
	if n == 0 {
		return 0
	}
	degs := make([]int, n)
	for i := 0; i < n; i++ {
		degs[i] = g.Degree(side, uint32(i))
	}
	sort.Ints(degs)
	idx := int(q*float64(n-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return degs[idx]
}

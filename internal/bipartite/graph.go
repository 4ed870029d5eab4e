// Package bipartite implements the "who buy-from where" bipartite graph
// substrate used throughout the repository (paper §III-A, Definition 1).
//
// A Graph stores an undirected bipartite graph G = (U ∪ V, E) between a user
// (PIN) side and a merchant side in compressed sparse row form, in both
// directions, so that peeling algorithms and samplers can walk adjacency in
// O(degree) from either side. Node identifiers are dense uint32 indices local
// to their side: user u ∈ [0, NumUsers), merchant v ∈ [0, NumMerchants).
package bipartite

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Edge is a single purchase connecting user U to merchant V.
type Edge struct {
	U uint32 // user (PIN) id
	V uint32 // merchant id
}

// Graph is an immutable bipartite graph in dual-CSR form. Build one with a
// Builder or one of the reader functions in io.go. The zero value is an empty
// graph. Offsets are uint32, 4 bytes per node, so a graph holds at most
// MaxEdges edges.
type Graph struct {
	userOff  []uint32 // len NumUsers+1; userAdj[userOff[u]:userOff[u+1]] are u's merchants
	userAdj  []uint32 // merchant ids, sorted within each user's range
	merchOff []uint32 // len NumMerchants+1
	merchAdj []uint32 // user ids, sorted within each merchant's range
}

// MaxEdges is the most edges a Graph holds: the largest value its uint32
// offsets reach. Reaching it would take 32 GB of edges.
const MaxEdges = math.MaxUint32

// ErrTooManyEdges reports an edge count past MaxEdges.
var ErrTooManyEdges = errors.New("bipartite: more than 2^32-1 edges, the limit of 32-bit CSR offsets")

// checkEdges returns ErrTooManyEdges if n edges do not fit in a Graph.
func checkEdges(n uint64) error {
	if n > MaxEdges {
		return fmt.Errorf("%w: %d", ErrTooManyEdges, n)
	}
	return nil
}

// mustFitEdges is checkEdges for the builders that have no error return.
func mustFitEdges(n uint64) {
	if err := checkEdges(n); err != nil {
		panic(err.Error())
	}
}

// NumUsers returns |U|, the number of user (PIN) nodes.
func (g *Graph) NumUsers() int {
	if len(g.userOff) == 0 {
		return 0
	}
	return len(g.userOff) - 1
}

// NumMerchants returns |V|, the number of merchant nodes.
func (g *Graph) NumMerchants() int {
	if len(g.merchOff) == 0 {
		return 0
	}
	return len(g.merchOff) - 1
}

// NumNodes returns |U| + |V|.
func (g *Graph) NumNodes() int { return g.NumUsers() + g.NumMerchants() }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.userAdj) }

// UserDegree returns the degree of user u.
func (g *Graph) UserDegree(u uint32) int { return int(g.userOff[u+1] - g.userOff[u]) }

// MerchantDegree returns the degree of merchant v.
func (g *Graph) MerchantDegree(v uint32) int { return int(g.merchOff[v+1] - g.merchOff[v]) }

// UserNeighbors returns the merchants adjacent to user u as a shared slice.
// The caller must not modify the returned slice.
func (g *Graph) UserNeighbors(u uint32) []uint32 {
	return g.userAdj[g.userOff[u]:g.userOff[u+1]]
}

// MerchantNeighbors returns the users adjacent to merchant v as a shared
// slice. The caller must not modify the returned slice.
func (g *Graph) MerchantNeighbors(v uint32) []uint32 {
	return g.merchAdj[g.merchOff[v]:g.merchOff[v+1]]
}

// HasEdge reports whether the edge (u, v) is present; a user past
// NumUsers has no edges. O(log degree(u)).
func (g *Graph) HasEdge(u, v uint32) bool {
	if int(u) >= g.NumUsers() {
		return false
	}
	_, found := slices.BinarySearch(g.UserNeighbors(u), v)
	return found
}

// Edges calls fn for every edge in user-major order. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for u := 0; u < g.NumUsers(); u++ {
		for _, v := range g.UserNeighbors(uint32(u)) {
			if !fn(Edge{U: uint32(u), V: v}) {
				return
			}
		}
	}
}

// EdgeList materializes every edge in user-major order.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// EdgeAt returns the i-th edge in user-major order, 0 ≤ i < NumEdges.
// O(log |U|) per call; samplers that draw many random edges should prefer
// EdgeList or the sampling package's reservoir helpers.
func (g *Graph) EdgeAt(i int) Edge {
	u := sort.Search(len(g.userOff)-1, func(u int) bool { return int(g.userOff[u+1]) > i })
	return Edge{U: uint32(u), V: g.userAdj[i]}
}

// UserRowRange returns the half-open range [start, end) of user u's
// positions in the user-major adjacency array. Position i within the range
// denotes the edge (u, UserAdjAt(i)); i is the edge's canonical id.
func (g *Graph) UserRowRange(u uint32) (start, end int) {
	return int(g.userOff[u]), int(g.userOff[u+1])
}

// UserAdjAt returns the merchant stored at user-major position i.
func (g *Graph) UserAdjAt(i int) uint32 { return g.userAdj[i] }

// MerchantRowRange returns the half-open range [start, end) of merchant v's
// positions in the merchant-major adjacency array.
func (g *Graph) MerchantRowRange(v uint32) (start, end int) {
	return int(g.merchOff[v]), int(g.merchOff[v+1])
}

// MerchantAdjAt returns the user stored at merchant-major position p.
func (g *Graph) MerchantAdjAt(p int) uint32 { return g.merchAdj[p] }

// String implements fmt.Stringer with a compact summary.
func (g *Graph) String() string {
	return fmt.Sprintf("bipartite.Graph{users: %d, merchants: %d, edges: %d}",
		g.NumUsers(), g.NumMerchants(), g.NumEdges())
}

// Validate checks internal CSR invariants. It is used by tests and by readers
// of untrusted on-disk graphs; a nil error guarantees all accessor methods are
// panic-free for in-range ids.
func (g *Graph) Validate() error {
	if err := validateCSR(g.userOff, g.userAdj, g.NumMerchants(), "user"); err != nil {
		return err
	}
	if err := validateCSR(g.merchOff, g.merchAdj, g.NumUsers(), "merchant"); err != nil {
		return err
	}
	if len(g.userAdj) != len(g.merchAdj) {
		return fmt.Errorf("bipartite: edge count mismatch: %d user-side vs %d merchant-side",
			len(g.userAdj), len(g.merchAdj))
	}
	return nil
}

func validateCSR(off []uint32, adj []uint32, otherSide int, name string) error {
	if len(off) == 0 {
		if len(adj) != 0 {
			return fmt.Errorf("bipartite: %s side has adjacency but no offsets", name)
		}
		return nil
	}
	if off[0] != 0 {
		return fmt.Errorf("bipartite: %s offsets must start at 0, got %d", name, off[0])
	}
	if int(off[len(off)-1]) != len(adj) {
		return fmt.Errorf("bipartite: %s offsets end at %d, want %d", name, off[len(off)-1], len(adj))
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("bipartite: %s offsets decrease at %d", name, i)
		}
		row := adj[off[i-1]:off[i]]
		for j := 1; j < len(row); j++ {
			if row[j] <= row[j-1] {
				return fmt.Errorf("bipartite: %s row %d is not strictly sorted", name, i-1)
			}
		}
	}
	for _, id := range adj {
		if int(id) >= otherSide {
			return fmt.Errorf("bipartite: %s adjacency id %d out of range [0,%d)", name, id, otherSide)
		}
	}
	return nil
}

// Builder accumulates edges and produces an immutable Graph. Duplicate edges
// are merged (the graph is simple). Node counts may be declared up front via
// NewBuilderSized or inferred from the largest id seen.
type Builder struct {
	numUsers     int
	numMerchants int
	edges        []Edge
}

// NewBuilder returns a Builder that infers side sizes from the edges added.
func NewBuilder() *Builder { return &Builder{} }

// NewBuilderSized returns a Builder for a graph with the given side sizes.
// Ids beyond the declared sizes grow the sides.
func NewBuilderSized(numUsers, numMerchants, edgeHint int) *Builder {
	return &Builder{
		numUsers:     numUsers,
		numMerchants: numMerchants,
		edges:        make([]Edge, 0, edgeHint),
	}
}

// AddEdge records a purchase (u, v).
func (b *Builder) AddEdge(u, v uint32) {
	if int(u) >= b.numUsers {
		b.numUsers = int(u) + 1
	}
	if int(v) >= b.numMerchants {
		b.numMerchants = int(v) + 1
	}
	b.edges = append(b.edges, Edge{U: u, V: v})
}

// Build constructs the immutable Graph. The Builder may be reused afterwards;
// its accumulated edges are consumed. It panics if more than MaxEdges
// distinct edges were added.
func (b *Builder) Build() *Graph {
	g := buildFromEdges(b.numUsers, b.numMerchants, b.edges)
	b.edges = nil
	return g
}

// FromEdges constructs a Graph directly from an edge list with declared side
// sizes. It returns an error if any edge id is out of range, and
// ErrTooManyEdges if the list, duplicates included, holds more than MaxEdges.
func FromEdges(numUsers, numMerchants int, edges []Edge) (*Graph, error) {
	if err := checkEdges(uint64(len(edges))); err != nil {
		return nil, err
	}
	for _, e := range edges {
		if int(e.U) >= numUsers {
			return nil, fmt.Errorf("bipartite: user id %d out of range [0,%d)", e.U, numUsers)
		}
		if int(e.V) >= numMerchants {
			return nil, fmt.Errorf("bipartite: merchant id %d out of range [0,%d)", e.V, numMerchants)
		}
	}
	return buildFromEdges(numUsers, numMerchants, append([]Edge(nil), edges...)), nil
}

// buildFromEdges sorts, dedups and lays out both CSR directions. It takes
// ownership of edges, and panics if more than MaxEdges remain.
func buildFromEdges(numUsers, numMerchants int, edges []Edge) *Graph {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	// Dedup in place.
	dedup := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			dedup = append(dedup, e)
		}
	}
	edges = dedup
	mustFitEdges(uint64(len(edges)))

	// Sorted user-major, the edges' merchants are the user rows in order.
	uoff := make([]uint32, numUsers+1)
	uadj := make([]uint32, len(edges))
	for i, e := range edges {
		uoff[e.U+1]++
		uadj[i] = e.V
	}
	for i := 1; i <= numUsers; i++ {
		uoff[i] += uoff[i-1]
	}
	moff, madj := transpose(uoff, uadj, numMerchants)
	return &Graph{userOff: uoff, userAdj: uadj, merchOff: moff, merchAdj: madj}
}

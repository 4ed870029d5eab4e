package bipartite

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// smallGraph is the running example:
//
//	u0 - v0, v1
//	u1 - v1
//	u2 - v1, v2
func smallGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	b.AddEdge(2, 1)
	b.AddEdge(2, 2)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := smallGraph(t)
	if got, want := g.NumUsers(), 3; got != want {
		t.Errorf("NumUsers = %d, want %d", got, want)
	}
	if got, want := g.NumMerchants(), 3; got != want {
		t.Errorf("NumMerchants = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), 5; got != want {
		t.Errorf("NumEdges = %d, want %d", got, want)
	}
	if got, want := g.NumNodes(), 6; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := smallGraph(t)
	wantUserDeg := []int{2, 1, 2}
	for u, want := range wantUserDeg {
		if got := g.UserDegree(uint32(u)); got != want {
			t.Errorf("UserDegree(%d) = %d, want %d", u, got, want)
		}
	}
	wantMerchDeg := []int{1, 3, 1}
	for v, want := range wantMerchDeg {
		if got := g.MerchantDegree(uint32(v)); got != want {
			t.Errorf("MerchantDegree(%d) = %d, want %d", v, got, want)
		}
	}
	if got, want := g.UserNeighbors(0), []uint32{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("UserNeighbors(0) = %v, want %v", got, want)
	}
	if got, want := g.MerchantNeighbors(1), []uint32{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("MerchantNeighbors(1) = %v, want %v", got, want)
	}
}

func TestHasEdge(t *testing.T) {
	g := smallGraph(t)
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 0, true}, {0, 1, true}, {0, 2, false},
		{1, 1, true}, {1, 0, false},
		{2, 2, true}, {2, 0, false},
		{9, 0, false}, // past NumUsers
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestDuplicateEdgesMerged(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 10; i++ {
		b.AddEdge(0, 0)
		b.AddEdge(1, 0)
	}
	g := b.Build()
	if got, want := g.NumEdges(), 2; got != want {
		t.Errorf("NumEdges = %d, want %d (duplicates must merge)", got, want)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder().Build()
	if g.NumUsers() != 0 || g.NumMerchants() != 0 || g.NumEdges() != 0 {
		t.Errorf("empty graph has nonzero size: %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("empty graph Validate: %v", err)
	}
	g.Edges(func(Edge) bool {
		t.Error("Edges on empty graph yielded an edge")
		return false
	})
}

func TestEdgeAt(t *testing.T) {
	g := smallGraph(t)
	list := g.EdgeList()
	for i, want := range list {
		if got := g.EdgeAt(i); got != want {
			t.Errorf("EdgeAt(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestEdgesEarlyStop(t *testing.T) {
	g := smallGraph(t)
	n := 0
	g.Edges(func(Edge) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early-stopped iteration visited %d edges, want 3", n)
	}
}

func TestFromEdgesRangeCheck(t *testing.T) {
	_, err := FromEdges(1, 1, []Edge{{U: 1, V: 0}})
	if err == nil {
		t.Error("FromEdges accepted out-of-range user id")
	}
	_, err = FromEdges(1, 1, []Edge{{U: 0, V: 5}})
	if err == nil {
		t.Error("FromEdges accepted out-of-range merchant id")
	}
	g, err := FromEdges(4, 4, []Edge{{U: 0, V: 0}})
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	// Declared sizes preserve isolated trailing nodes.
	if g.NumUsers() != 4 || g.NumMerchants() != 4 {
		t.Errorf("declared sizes not preserved: %v", g)
	}
}

func TestBuilderSizedGrows(t *testing.T) {
	b := NewBuilderSized(2, 2, 4)
	b.AddEdge(5, 7)
	g := b.Build()
	if g.NumUsers() != 6 || g.NumMerchants() != 8 {
		t.Errorf("builder did not grow sides: %v", g)
	}
}

// randomEdges generates a reproducible random edge multiset.
func randomEdges(rng *rand.Rand, numUsers, numMerchants, n int) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{
			U: uint32(rng.Intn(numUsers)),
			V: uint32(rng.Intn(numMerchants)),
		}
	}
	return edges
}

func TestPropertyCSRSymmetry(t *testing.T) {
	// For random graphs, the user-side and merchant-side CSR views must
	// describe the same edge set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 1+rng.Intn(40), 1+rng.Intn(40)
		g, err := FromEdges(nu, nm, randomEdges(rng, nu, nm, rng.Intn(200)))
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		var fromUsers, fromMerchants []Edge
		g.Edges(func(e Edge) bool { fromUsers = append(fromUsers, e); return true })
		for v := 0; v < g.NumMerchants(); v++ {
			for _, u := range g.MerchantNeighbors(uint32(v)) {
				fromMerchants = append(fromMerchants, Edge{U: u, V: uint32(v)})
			}
		}
		sortEdges(fromUsers)
		sortEdges(fromMerchants)
		return reflect.DeepEqual(fromUsers, fromMerchants)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDegreeSums(t *testing.T) {
	// Sum of degrees on each side equals |E|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 1+rng.Intn(50), 1+rng.Intn(50)
		g, err := FromEdges(nu, nm, randomEdges(rng, nu, nm, rng.Intn(300)))
		if err != nil {
			return false
		}
		su, sm := 0, 0
		for u := 0; u < g.NumUsers(); u++ {
			su += g.UserDegree(uint32(u))
		}
		for v := 0; v < g.NumMerchants(); v++ {
			sm += g.MerchantDegree(uint32(v))
		}
		return su == g.NumEdges() && sm == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := smallGraph(t)
	g.userAdj[0], g.userAdj[1] = g.userAdj[1], g.userAdj[0] // break sortedness
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted unsorted adjacency row")
	}
}

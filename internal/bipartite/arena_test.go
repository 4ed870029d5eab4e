package bipartite

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func arenaTestGraph(seed int64, nu, nm, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilderSized(nu, nm, edges)
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(rng.Intn(nu)), uint32(rng.Intn(nm)))
	}
	return b.Build()
}

// sameSubgraph asserts structural equality: CSR contents, validity, and
// parent id maps.
func sameSubgraph(t *testing.T, tag string, got, want *Subgraph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: invalid subgraph: %v", tag, err)
	}
	if got.NumUsers() != want.NumUsers() || got.NumMerchants() != want.NumMerchants() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: shape (%d,%d,%d) != (%d,%d,%d)", tag,
			got.NumUsers(), got.NumMerchants(), got.NumEdges(),
			want.NumUsers(), want.NumMerchants(), want.NumEdges())
	}
	if !reflect.DeepEqual(got.EdgeList(), want.EdgeList()) {
		t.Errorf("%s: edge lists differ", tag)
	}
	if !reflect.DeepEqual(append([]uint32{}, got.UserIDs...), append([]uint32{}, want.UserIDs...)) {
		t.Errorf("%s: user id maps differ: %v vs %v", tag, got.UserIDs, want.UserIDs)
	}
	if !reflect.DeepEqual(append([]uint32{}, got.MerchantIDs...), append([]uint32{}, want.MerchantIDs...)) {
		t.Errorf("%s: merchant id maps differ: %v vs %v", tag, got.MerchantIDs, want.MerchantIDs)
	}
}

// TestArenaBuildsMatchAllocatingBuilds reuses ONE arena across every build
// variant and graph shape (including shrink-then-grow) and checks each
// result against a fresh allocating build. Identical outputs here are what
// let the ensemble swap the arena path in without changing votes.
func TestArenaBuildsMatchAllocatingBuilds(t *testing.T) {
	a := NewArena()
	for _, shape := range []struct{ nu, nm, e int }{
		{60, 50, 400},
		{8, 6, 20}, // shrink
		{200, 150, 1500},
		{25, 80, 300},
	} {
		g := arenaTestGraph(int64(shape.nu), shape.nu, shape.nm, shape.e)
		rng := rand.New(rand.NewSource(99))

		var edges []Edge
		g.Edges(func(e Edge) bool {
			if rng.Intn(3) == 0 {
				edges = append(edges, e)
			}
			return true
		})
		// Duplicate a few edges: InducedByEdges documents merging.
		if len(edges) > 2 {
			edges = append(edges, edges[0], edges[1])
		}
		sameSubgraph(t, "edges", g.InducedByEdgesArena(a, edges), g.InducedByEdges(edges))

		var users, merchants []uint32
		for u := 0; u < g.NumUsers(); u++ {
			if rng.Intn(2) == 0 {
				users = append(users, uint32(u))
			}
		}
		for v := 0; v < g.NumMerchants(); v++ {
			if rng.Intn(2) == 0 {
				merchants = append(merchants, uint32(v))
			}
		}
		// Duplicate ids: documented as ignored.
		if len(users) > 0 {
			users = append(users, users[0])
		}
		sameSubgraph(t, "users", g.InducedByUsersArena(a, users), g.InducedByUsers(users))
		sameSubgraph(t, "merchants", g.InducedByMerchantsArena(a, merchants), g.InducedByMerchants(merchants))
		sameSubgraph(t, "both", g.InducedByBothArena(a, users, merchants), g.InducedByBoth(users, merchants))
	}
}

// TestInducedByEdgeIDsArena checks the RES fast path: a sorted canonical
// edge-id list must produce the same subgraph as materializing those edges
// and calling InducedByEdges.
func TestInducedByEdgeIDsArena(t *testing.T) {
	g := arenaTestGraph(7, 80, 70, 600)
	rng := rand.New(rand.NewSource(3))
	a := NewArena()
	for trial := 0; trial < 5; trial++ {
		var ids []int
		for i := 0; i < g.NumEdges(); i++ {
			if rng.Intn(4) == 0 {
				ids = append(ids, i)
			}
		}
		sort.Ints(ids)
		edges := make([]Edge, len(ids))
		for i, id := range ids {
			edges[i] = g.EdgeAt(id)
		}
		sameSubgraph(t, "edge-ids", g.InducedByEdgeIDsArena(a, ids), g.InducedByEdges(edges))
	}
	// Empty draw on a warm arena must yield an empty subgraph.
	sg := g.InducedByEdgeIDsArena(a, nil)
	if sg.NumUsers() != 0 || sg.NumMerchants() != 0 || sg.NumEdges() != 0 {
		t.Errorf("empty id list produced %v", sg)
	}
}

// TestArenaAcrossParents verifies one arena can serve different parent
// graphs back to back — the serving engine's pool reuses arenas across
// stream versions of very different sizes.
func TestArenaAcrossParents(t *testing.T) {
	a := NewArena()
	big := arenaTestGraph(1, 300, 250, 2000)
	small := arenaTestGraph(2, 12, 9, 40)
	for i := 0; i < 3; i++ {
		for _, g := range []*Graph{big, small} {
			users := []uint32{0, 1, 2, 3}
			sameSubgraph(t, "alternating", g.InducedByUsersArena(a, users), g.InducedByUsers(users))
		}
	}
}

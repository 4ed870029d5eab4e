package bipartite

import (
	"slices"

	"ensemfdet/internal/scratch"
)

// Arena is reusable scratch for building induced subgraphs. One arena per
// worker goroutine makes the sample→subgraph step allocation-free after
// warm-up: the remapper tables are epoch-stamped (reset is a generation
// bump, not a parent-sized refill), the CSR arrays are grown in place, and
// no intermediate local []Edge is materialized on the paths that can avoid
// one (edge lists arrive pre-grouped for edge- and user-induced builds).
//
// Aliasing contract: the Subgraph returned by the *Arena build methods
// points into arena-owned memory — its Graph CSR arrays and its
// UserIDs/MerchantIDs maps are overwritten by the next build on the same
// arena. Callers that need a subgraph to outlive the next build must use the
// allocating variants (InducedByEdges etc.), which wrap a fresh arena.
//
// An Arena must not be shared between goroutines without external
// synchronization. Building from different parent graphs with one arena is
// fine: every build re-sizes all tables to its own parent.
type Arena struct {
	users     idRemapper
	merchants idRemapper
	keep      scratch.Stamps // merchant keep-set for cross-section builds
	dedup     scratch.Stamps // input user dedup for cross-section builds
	edges     []Edge         // local-id edge buffer for scatter builds
	userOff   []uint32
	merchOff  []uint32
	userAdj   []uint32
	merchAdj  []uint32
	cur       []uint32 // per-row scatter cursors / row counts
	g         Graph
	sub       Subgraph
}

// NewArena returns an empty arena. All tables are grown lazily on first use.
func NewArena() *Arena { return &Arena{} }

// InducedByEdgesArena is InducedByEdges building into a. The given parent
// edges are not modified.
func (g *Graph) InducedByEdgesArena(a *Arena, edges []Edge) *Subgraph {
	a.users.reset(g.NumUsers())
	a.merchants.reset(g.NumMerchants())
	// Pass 1: assign local user ids in first-seen order and count rows. The
	// count table is indexed by local id, so nu ≤ len(edges) slots suffice
	// and the zeroing stays sample-sized, never parent-sized.
	bound := min(g.NumUsers(), len(edges))
	cnt := scratch.GrowZero(&a.cur, bound)
	for _, e := range edges {
		cnt[a.users.get(e.U)]++
	}
	nu := len(a.users.ids)
	uoff := scratch.Grow(&a.userOff, nu+1)
	uoff[0] = 0
	for l := 0; l < nu; l++ {
		uoff[l+1] = uoff[l] + cnt[l]
		cnt[l] = 0
	}
	// Pass 2: scatter merchants into their rows, assigning local merchant
	// ids in edge order — the same first-seen order the allocating path
	// produced, so parent id maps are identical.
	uadj := scratch.Grow(&a.userAdj, len(edges))
	for _, e := range edges {
		lu := a.users.get(e.U)
		uadj[uoff[lu]+cnt[lu]] = a.merchants.get(e.V)
		cnt[lu]++
	}
	return a.finish(g, nu)
}

// InducedByEdgeIDsArena builds the subgraph of the edges whose canonical
// (user-major) edge ids are listed in ids, which must be sorted ascending
// and in range [0, NumEdges). It is the RES fast path: the sampler's sorted
// index draw maps straight into CSR rows and no edge list is materialized.
func (g *Graph) InducedByEdgeIDsArena(a *Arena, ids []int) *Subgraph {
	a.users.reset(g.NumUsers())
	a.merchants.reset(g.NumMerchants())
	// ids are sorted, so owning users appear in nondecreasing canonical
	// order and a single forward walk over the user offsets resolves them;
	// each user's row fills contiguously as its ids stream past.
	uoff := scratch.Grow(&a.userOff, len(ids)+1)
	uadj := scratch.Grow(&a.userAdj, len(ids))
	u := uint32(0)
	prevLU := -1
	for pos, i := range ids {
		for {
			_, end := g.UserRowRange(u)
			if i < end {
				break
			}
			u++
		}
		lu := int(a.users.get(u))
		if lu != prevLU {
			uoff[lu] = uint32(pos)
			prevLU = lu
		}
		uadj[pos] = a.merchants.get(g.UserAdjAt(i))
	}
	nu := len(a.users.ids)
	uoff[nu] = uint32(len(ids))
	return a.finish(g, nu)
}

// InducedByUsersArena is InducedByUsers building into a.
func (g *Graph) InducedByUsersArena(a *Arena, userIDs []uint32) *Subgraph {
	a.users.reset(g.NumUsers())
	a.merchants.reset(g.NumMerchants())
	for _, pu := range userIDs {
		a.users.get(pu) // idempotent: duplicate ids keep their first-seen local id
	}
	nu := len(a.users.ids)
	uoff := scratch.Grow(&a.userOff, nu+1)
	uoff[0] = 0
	for l, pu := range a.users.ids {
		uoff[l+1] = uoff[l] + uint32(g.UserDegree(pu))
	}
	// Selected users keep all their edges: rows copy whole parent rows, and
	// merchant ids are assigned first-seen in that same visit order.
	uadj := scratch.Grow(&a.userAdj, int(uoff[nu]))
	pos := 0
	for _, pu := range a.users.ids {
		for _, pv := range g.UserNeighbors(pu) {
			uadj[pos] = a.merchants.get(pv)
			pos++
		}
	}
	return a.finish(g, nu)
}

// InducedByMerchantsArena is InducedByMerchants building into a.
func (g *Graph) InducedByMerchantsArena(a *Arena, merchantIDs []uint32) *Subgraph {
	a.users.reset(g.NumUsers())
	a.merchants.reset(g.NumMerchants())
	edges := a.edges[:0]
	for _, pv := range merchantIDs {
		if a.merchants.seen(pv) {
			continue
		}
		lv := a.merchants.get(pv)
		for _, pu := range g.MerchantNeighbors(pv) {
			edges = append(edges, Edge{U: a.users.get(pu), V: lv})
		}
	}
	a.edges = edges
	return a.scatterLocal(g, edges)
}

// InducedByBothArena is InducedByBoth building into a.
func (g *Graph) InducedByBothArena(a *Arena, userIDs, merchantIDs []uint32) *Subgraph {
	a.users.reset(g.NumUsers())
	a.merchants.reset(g.NumMerchants())
	a.keep.Reset(g.NumMerchants())
	for _, v := range merchantIDs {
		a.keep.Add(int(v))
	}
	a.dedup.Reset(g.NumUsers())
	edges := a.edges[:0]
	for _, pu := range userIDs {
		if !a.dedup.TryAdd(int(pu)) {
			continue
		}
		for _, pv := range g.UserNeighbors(pu) {
			if a.keep.Has(int(pv)) {
				edges = append(edges, Edge{U: a.users.get(pu), V: a.merchants.get(pv)})
			}
		}
	}
	a.edges = edges
	return a.scatterLocal(g, edges)
}

// scatterLocal counting-sorts already-localized edges into user rows and
// finishes the build. Every local user id stems from at least one edge, so
// row tables are bounded by len(edges).
func (a *Arena) scatterLocal(parent *Graph, edges []Edge) *Subgraph {
	nu := len(a.users.ids)
	uoff := scratch.Grow(&a.userOff, nu+1)
	cnt := scratch.GrowZero(&a.cur, nu)
	for _, e := range edges {
		cnt[e.U]++
	}
	uoff[0] = 0
	for l := 0; l < nu; l++ {
		uoff[l+1] = uoff[l] + cnt[l]
		cnt[l] = 0
	}
	uadj := scratch.Grow(&a.userAdj, len(edges))
	for _, e := range edges {
		uadj[uoff[e.U]+cnt[e.U]] = e.V
		cnt[e.U]++
	}
	return a.finish(parent, nu)
}

// finish sorts and dedups the user rows already scattered into
// a.userOff/a.userAdj, derives the merchant-side CSR (rows come out sorted
// because the fill is user-major), and wires up the arena-owned Subgraph.
// The result is byte-identical to what buildFromEdges produces for the same
// logical edge set.
func (a *Arena) finish(parent *Graph, nu int) *Subgraph {
	uoff := a.userOff[:nu+1]
	uadj := a.userAdj
	// Local merchant ids within a row are in first-seen order, not
	// ascending; the CSR invariant wants strictly sorted rows. Sort each
	// row in place, then compact duplicates out (w trails i, so writes
	// never clobber unread input).
	w := uint32(0)
	start := uoff[0]
	for u := 0; u < nu; u++ {
		end := uoff[u+1]
		slices.Sort(uadj[start:end])
		uoff[u] = w
		for i := start; i < end; i++ {
			if i > start && uadj[i] == uadj[i-1] {
				continue
			}
			uadj[w] = uadj[i]
			w++
		}
		start = end
	}
	uoff[nu] = w
	uadj = uadj[:w]

	nm := len(a.merchants.ids)
	moff := scratch.GrowZero(&a.merchOff, nm+1)
	for _, v := range uadj {
		moff[v+1]++
	}
	for v := 1; v <= nm; v++ {
		moff[v] += moff[v-1]
	}
	madj := scratch.Grow(&a.merchAdj, int(w))
	cur := scratch.GrowZero(&a.cur, nm)
	for u := 0; u < nu; u++ {
		for i := uoff[u]; i < uoff[u+1]; i++ {
			v := uadj[i]
			madj[moff[v]+cur[v]] = uint32(u)
			cur[v]++
		}
	}
	a.g = Graph{userOff: uoff, userAdj: uadj, merchOff: moff, merchAdj: madj}
	a.sub = Subgraph{Graph: &a.g, UserIDs: a.users.ids, MerchantIDs: a.merchants.ids}
	return &a.sub
}

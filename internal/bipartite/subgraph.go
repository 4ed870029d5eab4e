package bipartite

import "ensemfdet/internal/scratch"

// Subgraph is a Graph extracted from a parent graph together with the maps
// from its dense local ids back to the parent's ids. Samplers produce
// Subgraphs; the ensemble layer uses the id maps to cast votes in the parent
// id space (paper Alg. 2 lines 5-7).
type Subgraph struct {
	*Graph
	// UserIDs[localUser] is the parent user id of local user node localUser.
	UserIDs []uint32
	// MerchantIDs[localMerchant] is the parent merchant id of local merchant
	// node localMerchant.
	MerchantIDs []uint32
}

// ParentUser maps a local user id to the parent user id.
func (s *Subgraph) ParentUser(u uint32) uint32 { return s.UserIDs[u] }

// ParentMerchant maps a local merchant id to the parent merchant id.
func (s *Subgraph) ParentMerchant(v uint32) uint32 { return s.MerchantIDs[v] }

// Detach returns a deep copy of s that shares no memory with the arena it
// was built in. The one-shot induced-subgraph builders return detached
// copies so a retained subgraph pins only its own CSR and id maps — not the
// throwaway arena's parent-sized remapper tables.
func (s *Subgraph) Detach() *Subgraph {
	return &Subgraph{
		Graph: &Graph{
			userOff:  append([]uint32(nil), s.userOff...),
			userAdj:  append([]uint32(nil), s.userAdj...),
			merchOff: append([]uint32(nil), s.merchOff...),
			merchAdj: append([]uint32(nil), s.merchAdj...),
		},
		UserIDs:     append([]uint32(nil), s.UserIDs...),
		MerchantIDs: append([]uint32(nil), s.MerchantIDs...),
	}
}

// idRemapper assigns dense local ids to a sparse subset of a parent id space
// in first-seen order. It is slice-backed (parent side sizes are known and
// modest) because the ensemble builds thousands of subgraphs per run and map
// overhead dominated profiles. Reuse is epoch-stamped: reset bumps a
// generation counter instead of re-filling a parent-sized sentinel array, so
// a recycled remapper costs O(1) per sample rather than O(parent).
type idRemapper struct {
	stamp scratch.Stamps
	local []int32 // parent id -> local id, valid only when stamped
	ids   []uint32
}

func (r *idRemapper) reset(parentSize int) {
	r.stamp.Reset(parentSize)
	scratch.Grow(&r.local, parentSize)
	r.ids = r.ids[:0]
}

func (r *idRemapper) get(parent uint32) uint32 {
	if r.stamp.Has(int(parent)) {
		return uint32(r.local[parent])
	}
	r.stamp.Add(int(parent))
	l := int32(len(r.ids))
	r.local[parent] = l
	r.ids = append(r.ids, parent)
	return uint32(l)
}

func (r *idRemapper) seen(parent uint32) bool { return r.stamp.Has(int(parent)) }

// InducedByEdges builds the subgraph made of exactly the given parent edges:
// both endpoints of every edge are included and no extra edges are added
// (paper §IV-A1, edge sampling semantics). Duplicate edges are merged.
//
// Each call allocates; the ensemble hot path uses InducedByEdgesArena.
func (g *Graph) InducedByEdges(edges []Edge) *Subgraph {
	return g.InducedByEdgesArena(NewArena(), edges).Detach()
}

// InducedByUsers builds the subgraph on the selected user rows of the
// adjacency matrix W: the selected users keep *all* their edges, and exactly
// the merchants touched by those edges appear (paper §IV-A3, one-side node
// sampling of U). Duplicate user ids are ignored.
func (g *Graph) InducedByUsers(userIDs []uint32) *Subgraph {
	return g.InducedByUsersArena(NewArena(), userIDs).Detach()
}

// InducedByMerchants is the merchant-side analogue of InducedByUsers
// (one-side node sampling of V).
func (g *Graph) InducedByMerchants(merchantIDs []uint32) *Subgraph {
	return g.InducedByMerchantsArena(NewArena(), merchantIDs).Detach()
}

// InducedByBoth builds the cross-section subgraph of the selected rows and
// columns of W: an edge survives iff both its endpoints were selected (paper
// §IV-A4, two-side node sampling). Nodes left isolated by the cross-section
// are dropped so the subgraph stays dense in ids.
func (g *Graph) InducedByBoth(userIDs, merchantIDs []uint32) *Subgraph {
	return g.InducedByBothArena(NewArena(), userIDs, merchantIDs).Detach()
}

// Whole wraps g as a Subgraph whose id maps are the identity. It lets callers
// run subgraph-oriented pipelines (FDET, voting) directly on the full graph.
func (g *Graph) Whole() *Subgraph {
	uids := make([]uint32, g.NumUsers())
	for i := range uids {
		uids[i] = uint32(i)
	}
	mids := make([]uint32, g.NumMerchants())
	for i := range mids {
		mids[i] = uint32(i)
	}
	return &Subgraph{Graph: g, UserIDs: uids, MerchantIDs: mids}
}

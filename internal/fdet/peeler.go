package fdet

import (
	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/indexheap"
	"ensemfdet/internal/scratch"
)

// peeler holds the mutable cross-round state of one FDET run: the frozen
// merchant weights, the per-edge liveness left behind by earlier blocks, and
// a compacted alive-adjacency so round k scans only edges still alive
// instead of all |E|.
//
// All state lives in grow-in-place buffers, so a peeler embedded in a
// Scratch is recycled across FDET runs (and across the samples one ensemble
// worker processes) without allocating. The zero value is ready for reset.
//
// Determinism invariant: every float accumulation and every heap operation
// happens in exactly the order the naive implementation (full-CSR scan that
// skips dead edges) would produce. Compaction is stable — surviving edges
// keep their user-major (resp. merchant-major) relative order — so priority
// sums see the same addends in the same order and votes stay byte-identical
// for a fixed seed.
type peeler struct {
	g          *bipartite.Graph
	w          []float64 // merchant weights frozen from g at reset
	edgeAlive  []bool    // indexed by canonical (user-major) edge id
	aliveEdges int

	// Compacted alive adjacency. uOff/uAdj/uEid mirror the user-major CSR
	// restricted to alive edges (uEid carries canonical edge ids); mOff/
	// mAdj/mEid mirror the merchant-major direction. Rows are re-compacted
	// at the start of every round, dropping edges killed by the previous
	// block, so dead edges are never rescanned.
	uOff, mOff []int32
	uAdj, mAdj []uint32
	uEid, mEid []int32

	userPrio          []float64
	userDeg, merchDeg []int32
	heap              indexheap.Heap
	order             []int32
	phis              []float64
	inBlockUser       []bool
	inBlockMerch      []bool

	// Backing storage for detected block memberships; blockRef ranges index
	// into these. Materialized into []Block only when detection finishes,
	// because append may move the arrays while rounds are still running.
	blockUsers     []uint32
	blockMerchants []uint32
}

// blockRef is one detected block as ranges into the peeler's membership
// arrays, plus its φ score.
type blockRef struct {
	uStart, uEnd int
	vStart, vEnd int
	score        float64
}

// reset prepares the peeler to run FDET on g under frozen per-merchant
// weights (length NumMerchants of g).
func (p *peeler) reset(g *bipartite.Graph, weights []float64) {
	p.g, p.w = g, weights
	e := g.NumEdges()
	nu, nm := g.NumUsers(), g.NumMerchants()
	alive := scratch.Grow(&p.edgeAlive, e)
	for i := range alive {
		alive[i] = true
	}
	p.aliveEdges = e
	p.blockUsers = p.blockUsers[:0]
	p.blockMerchants = p.blockMerchants[:0]

	// Seed the alive adjacency with the whole graph in canonical order. The
	// merchant-major side is filled by a user-major walk, which visits each
	// merchant's users in ascending order — matching the merchant rows'
	// sort order — with mEid recording canonical (user-major) edge ids.
	uOff := scratch.Grow(&p.uOff, nu+1)
	uAdj := scratch.Grow(&p.uAdj, e)
	uEid := scratch.Grow(&p.uEid, e)
	mOff := scratch.Grow(&p.mOff, nm+1)
	mAdj := scratch.Grow(&p.mAdj, e)
	mEid := scratch.Grow(&p.mEid, e)
	mCur := scratch.GrowZero(&p.merchDeg, nm) // borrowed as fill cursor
	mOff[0] = 0
	for v := 0; v < nm; v++ {
		rs, re := g.MerchantRowRange(uint32(v))
		mOff[v+1] = mOff[v] + int32(re-rs)
	}
	for u := 0; u < nu; u++ {
		start, end := g.UserRowRange(uint32(u))
		uOff[u] = int32(start)
		for i := start; i < end; i++ {
			v := g.UserAdjAt(i)
			uAdj[i] = v
			uEid[i] = int32(i)
			pos := mOff[v] + mCur[v]
			mAdj[pos] = uint32(u)
			mEid[pos] = int32(i)
			mCur[v]++
		}
	}
	uOff[nu] = int32(e)
}

// peelOnce performs one greedy peeling round over the alive part of the
// graph: it deletes the minimum-priority node repeatedly, tracks the density
// score φ after every deletion, returns the best suffix as a blockRef, and
// marks that block's edges dead. ok is false when no alive edges remain.
//
// Priorities are the removal cost of a node: for a user, the summed weight
// of its alive edges; for a merchant, its alive degree times its weight.
// Removing the node subtracts exactly its priority from the total weighted
// edge mass, so φ can be maintained incrementally in O(1) per deletion plus
// O(deg log n) heap updates — the structure that yields the paper's
// O(kˆ|E| log(|U|+|V|)) bound. The round's scans touch only alive edges:
// the stable compaction below drops edges killed by earlier blocks exactly
// once, instead of re-skipping them every subsequent round.
func (p *peeler) peelOnce() (blockRef, bool) {
	if p.aliveEdges == 0 {
		return blockRef{}, false
	}
	g := p.g
	nu, nm := g.NumUsers(), g.NumMerchants()

	userPrio := scratch.Grow(&p.userPrio, nu)
	userDeg := scratch.Grow(&p.userDeg, nu)
	merchDeg := scratch.GrowZero(&p.merchDeg, nm)

	// Stable in-place compaction of the user-major alive rows, fused with
	// the priority/degree recomputation the round needs anyway. Surviving
	// edges keep their relative order, so the float sums below add the same
	// values in the same order as a full-CSR scan skipping dead edges.
	total := 0.0
	w := int32(0)
	start := p.uOff[0]
	for u := 0; u < nu; u++ {
		end := p.uOff[u+1]
		p.uOff[u] = w
		prio := 0.0
		deg := int32(0)
		for i := start; i < end; i++ {
			eid := p.uEid[i]
			if !p.edgeAlive[eid] {
				continue
			}
			v := p.uAdj[i]
			p.uAdj[w] = v
			p.uEid[w] = eid
			w++
			wv := p.w[v]
			prio += wv
			total += wv
			deg++
			merchDeg[v]++
		}
		userPrio[u] = prio
		userDeg[u] = deg
		start = end
	}
	p.uOff[nu] = w

	// Merchant-major side: same stable compaction, no arithmetic.
	wm := int32(0)
	startM := p.mOff[0]
	for v := 0; v < nm; v++ {
		end := p.mOff[v+1]
		p.mOff[v] = wm
		for i := startM; i < end; i++ {
			eid := p.mEid[i]
			if !p.edgeAlive[eid] {
				continue
			}
			p.mAdj[wm] = p.mAdj[i]
			p.mEid[wm] = eid
			wm++
		}
		startM = end
	}
	p.mOff[nm] = wm

	nodesAlive := 0
	for u := 0; u < nu; u++ {
		if userDeg[u] > 0 {
			nodesAlive++
		}
	}
	for v := 0; v < nm; v++ {
		if merchDeg[v] > 0 {
			nodesAlive++
		}
	}

	// Simulate the full deletion sequence, recording φ after t deletions.
	// phis[0] is the intact alive graph (H_n in Algorithm 1). Neighbor
	// scans need no liveness checks: every compacted entry is alive for the
	// whole round (edges die only between rounds).
	p.deleteAll(nu, nm, total, nodesAlive)
	order, phis := p.order, p.phis

	// Best suffix: earliest argmax keeps the largest qualifying subgraph and
	// makes the result deterministic.
	bestT, bestPhi := 0, phis[0]
	for t, phi := range phis {
		if phi > bestPhi {
			bestT, bestPhi = t, phi
		}
	}

	// Membership: alive nodes not deleted in the first bestT steps.
	inBlockUser := scratch.Grow(&p.inBlockUser, nu)
	inBlockMerch := scratch.Grow(&p.inBlockMerch, nm)
	for u := 0; u < nu; u++ {
		inBlockUser[u] = userDeg[u] > 0
	}
	for v := 0; v < nm; v++ {
		inBlockMerch[v] = merchDeg[v] > 0
	}
	for t := 0; t < bestT; t++ {
		id := int(order[t])
		if id < nu {
			inBlockUser[id] = false
		} else {
			inBlockMerch[id-nu] = false
		}
	}

	ref := blockRef{uStart: len(p.blockUsers), vStart: len(p.blockMerchants), score: bestPhi}
	for u := 0; u < nu; u++ {
		if inBlockUser[u] {
			p.blockUsers = append(p.blockUsers, uint32(u))
		}
	}
	for v := 0; v < nm; v++ {
		if inBlockMerch[v] {
			p.blockMerchants = append(p.blockMerchants, uint32(v))
		}
	}
	ref.uEnd, ref.vEnd = len(p.blockUsers), len(p.blockMerchants)

	// Remove the block's internal edges so the next round searches the rest
	// of the graph (Algorithm 1 line 11). Only the block's alive rows are
	// walked; the next round's compaction drops the kills.
	for i := ref.uStart; i < ref.uEnd; i++ {
		u := p.blockUsers[i]
		s, e := p.uOff[u], p.uOff[u+1]
		for j := s; j < e; j++ {
			if inBlockMerch[p.uAdj[j]] {
				p.edgeAlive[p.uEid[j]] = false
				p.aliveEdges--
			}
		}
	}
	return ref, true
}

// deleteAll runs the deletion sequence on the index heap: float
// priorities, O(log V) per pop and per neighbor decrement. The heap is bulk
// built (Floyd) — construction order cannot leak into the result because
// pops follow the (priority, id) total order regardless of layout.
func (p *peeler) deleteAll(nu, nm int, total float64, nodesAlive int) {
	h := &p.heap
	h.Reset(nu + nm)
	for u := 0; u < nu; u++ {
		if p.userDeg[u] > 0 {
			h.PushUnordered(u, p.userPrio[u])
		}
	}
	for v := 0; v < nm; v++ {
		if p.merchDeg[v] > 0 {
			h.PushUnordered(nu+v, float64(p.merchDeg[v])*p.w[v])
		}
	}
	h.Heapify()

	order := p.order[:0]
	phis := p.phis[:0]
	phis = append(phis, total/float64(nodesAlive))
	left := nodesAlive
	for h.Len() > 0 {
		id, prio := h.Pop()
		order = append(order, int32(id))
		total -= prio
		left--
		if id < nu {
			s, e := p.uOff[id], p.uOff[id+1]
			for i := s; i < e; i++ {
				v := int(p.uAdj[i])
				h.AddIfPresent(nu+v, -p.w[v])
			}
		} else {
			v := id - nu
			wv := p.w[v]
			s, e := p.mOff[v], p.mOff[v+1]
			for i := s; i < e; i++ {
				h.AddIfPresent(int(p.mAdj[i]), -wv)
			}
		}
		if left > 0 {
			phis = append(phis, total/float64(left))
		} else {
			phis = append(phis, 0)
		}
	}
	p.order, p.phis = order, phis
}

// block materializes ref against the (final) membership arrays. Full slice
// expressions keep later appends from silently sharing the blocks' tails.
func (p *peeler) block(ref blockRef) Block {
	return Block{
		Users:     p.blockUsers[ref.uStart:ref.uEnd:ref.uEnd],
		Merchants: p.blockMerchants[ref.vStart:ref.vEnd:ref.vEnd],
		Score:     ref.score,
	}
}

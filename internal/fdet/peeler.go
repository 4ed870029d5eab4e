package fdet

import (
	"math"

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

	// Per-round deletion state, indexed by node id (users 0..nu-1, then
	// merchant v at nu+v). prio holds every alive node's starting priority;
	// run holds the alive nodes sorted by (priority, id), with runTmp and
	// digits as the radix sort's scratch; inRun marks the nodes the run
	// still answers for, and heap holds the others until they are popped.
	prio              []float64
	userDeg, merchDeg []int32
	inRun             []bool
	run, runTmp       []runEntry
	digits            [6][1 << radixBits]int32
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
// edge mass, so φ can be maintained incrementally in O(1) per deletion. The
// minimum comes from deleteAll's presorted run (O(1) per pop) or its
// decrease-heap (O(log n) per pop and per neighbor decrement), so a round
// costs at most O(|E| log(|U|+|V|)) — the paper's O(kˆ|E| log(|U|+|V|))
// bound over kˆ rounds. The round's scans touch only alive edges: the
// stable compaction below drops edges killed by earlier blocks exactly
// once, instead of re-skipping them every subsequent round.
func (p *peeler) peelOnce() (blockRef, bool) {
	if p.aliveEdges == 0 {
		return blockRef{}, false
	}
	g := p.g
	nu, nm := g.NumUsers(), g.NumMerchants()

	prio := scratch.Grow(&p.prio, nu+nm)
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
		sum := 0.0
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
			sum += wv
			total += wv
			deg++
			merchDeg[v]++
		}
		prio[u] = sum
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

	// Simulate the full deletion sequence, recording φ after t deletions.
	// phis[0] is the intact alive graph (H_n in Algorithm 1). Neighbor
	// scans need no liveness checks: every compacted entry is alive for the
	// whole round (edges die only between rounds).
	p.deleteAll(nu, nm, total)
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

// deleteAll runs the deletion sequence and fills p.order and p.phis. Every
// alive node starts in a presorted run: its starting (priority, id), radix
// sorted once per round, which a cursor pops in O(1). A node whose priority
// changes leaves the run for the decrease-heap, entering at its starting
// priority plus the delta — the float operation the heap applies to every
// later change — so only changed nodes pay O(log n) per pop and update.
// Each pop takes the smaller of the run's head and the heap's top under the
// heap's (priority, lowest id) order, so the deletion sequence is the one a
// single heap over all nodes would produce, bit for bit.
func (p *peeler) deleteAll(nu, nm int, total float64) {
	n := nu + nm
	prio := p.prio
	inRun := scratch.Grow(&p.inRun, n)
	run := scratch.Grow(&p.run, n)[:0]
	for u := 0; u < nu; u++ {
		if inRun[u] = p.userDeg[u] > 0; inRun[u] {
			run = append(run, runEntry{orderKey(prio[u]), int32(u)})
		}
	}
	for v := 0; v < nm; v++ {
		id := nu + v
		if inRun[id] = p.merchDeg[v] > 0; inRun[id] {
			prio[id] = float64(p.merchDeg[v]) * p.w[v]
			run = append(run, runEntry{orderKey(prio[id]), int32(id)})
		}
	}
	// Appending in ascending id order and sorting stably leaves ties in id
	// order: the run is sorted by (priority, id).
	run = sortRun(run, scratch.Grow(&p.runTmp, len(run)), &p.digits)
	h := &p.heap
	h.Reset(n)

	order := p.order[:0]
	phis := p.phis[:0]
	phis = append(phis, total/float64(len(run)))
	cur := 0
	for left := len(run) - 1; left >= 0; left-- {
		for cur < len(run) && !inRun[run[cur].id] {
			cur++ // moved to the heap
		}
		fromRun := cur < len(run)
		var id int
		var pr float64
		if fromRun {
			id = int(run[cur].id)
			pr = prio[id]
		}
		if h.Len() > 0 {
			if hid, hp := h.Peek(); !fromRun || hp < pr || hp == pr && hid < id {
				id, pr = h.Pop()
				fromRun = false
			}
		}
		if fromRun {
			inRun[id] = false
			cur++
		}
		order = append(order, int32(id))
		total -= pr
		if id < nu {
			s, e := p.uOff[id], p.uOff[id+1]
			for i := s; i < e; i++ {
				v := int(p.uAdj[i])
				p.lower(nu+v, -p.w[v])
			}
		} else {
			v := id - nu
			wv := p.w[v]
			s, e := p.mOff[v], p.mOff[v+1]
			for i := s; i < e; i++ {
				p.lower(int(p.mAdj[i]), -wv)
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

// lower adds delta to the priority of node x, a neighbor of the node just
// deleted. Its first change moves it from the run into the heap; a node
// already deleted is in neither and stays untouched.
func (p *peeler) lower(x int, delta float64) {
	if p.inRun[x] {
		p.inRun[x] = false
		p.heap.Push(x, p.prio[x]+delta)
	} else {
		p.heap.AddIfPresent(x, delta)
	}
}

// runEntry is one node of the presorted run: the order key of its starting
// priority, and its id.
type runEntry struct {
	key uint64
	id  int32
}

// orderKey maps a priority to a uint64 whose unsigned order is the
// priority's float order: flip every bit of a negative, only the sign bit
// of a non-negative. −0 is keyed as +0, because the heap's comparison
// treats them as equal and breaks the tie by id.
func orderKey(prio float64) uint64 {
	if prio == 0 {
		prio = 0
	}
	b := math.Float64bits(prio)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixBits is the digit width of sortRun: six passes of 11 bits cover a
// 64-bit key with a 48 KB count table.
const radixBits = 11

// sortRun stably sorts run by key with an LSD radix sort, using tmp (same
// length) and digits as scratch, and returns whichever of the two holds the
// result. A pass is skipped when every key has the same digit in it.
func sortRun(run, tmp []runEntry, digits *[6][1 << radixBits]int32) []runEntry {
	if len(run) < 2 {
		return run
	}
	const mask = 1<<radixBits - 1
	*digits = [6][1 << radixBits]int32{}
	for _, e := range run {
		k := e.key
		digits[0][k&mask]++
		digits[1][k>>radixBits&mask]++
		digits[2][k>>(2*radixBits)&mask]++
		digits[3][k>>(3*radixBits)&mask]++
		digits[4][k>>(4*radixBits)&mask]++
		digits[5][k>>(5*radixBits)]++
	}
	first := run[0].key
	for d := range digits {
		count := &digits[d]
		shift := radixBits * d
		if count[first>>shift&mask] == int32(len(run)) {
			continue
		}
		next := int32(0)
		for b, c := range count {
			count[b] = next
			next += c
		}
		for _, e := range run {
			b := e.key >> shift & mask
			tmp[count[b]] = e
			count[b]++
		}
		run, tmp = tmp, run
	}
	return run
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

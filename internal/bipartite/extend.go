package bipartite

import (
	"fmt"
	"slices"

	"ensemfdet/internal/scratch"
)

// ExtendBuilder constructs a new immutable Graph from a previous Graph plus a
// batch of inserted edges and a batch of deleted edges, without re-sorting or
// re-scattering the edges the previous graph already laid out. It is the
// incremental half of the streaming snapshot path: a full rebuild pays
// O(|E| log |E|) to sort the whole edge log, while ExtendDelta pays
// O(|Δ| log |Δ|) to sort only the delta — inserts and deletes — and then
// merges it into the previous CSR. Unaffected rows are block-copied, affected
// rows are three-stream merged (previous row, sorted insert run, sorted
// delete run), and the merchant side is derived the same way from the net
// surviving changes sorted merchant-major, or, when the changes are a large
// share of the graph, transposed from the new user side without a sort. Rows
// whose edges all expire simply emit nothing and drop out of the survivor
// bookkeeping; side sizes never shrink (ids are dense and stable), so an
// emptied row is an explicit empty row, exactly as a full rebuild over the
// surviving edge set lays it out.
//
// The output is byte-identical to what a full build over the resulting edge
// set produces: merged rows stay strictly sorted and deduplicated, so the CSR
// is the same canonical function of (numUsers, numMerchants, edge set) that
// buildFromEdges computes.
//
// The builder itself is a reusable arena: its sorted-delta and survivor
// buffers are grown in place (internal/scratch) and recycled across builds,
// so a warm build performs exactly the four output-array allocations an
// immutable snapshot requires — allocs/op is independent of |E|, of the
// insert count, and of the delete count. A buffer a large delta grew past
// MaxKeptScratch is released after its build instead. An ExtendBuilder must
// not be used from multiple goroutines concurrently; the stream layer guards
// its builder with the single-flight build lock.
type ExtendBuilder struct {
	ud   []Edge // inserts sorted user-major, deduped within the batch
	dd   []Edge // deletes sorted user-major, deduped within the batch
	vd   []Edge // net inserts (absent from prev), sorted merchant-major to merge
	vdel []Edge // net deletes (removed from prev), sorted merchant-major to merge
}

// NewExtendBuilder returns an empty builder; buffers grow lazily.
func NewExtendBuilder() *ExtendBuilder { return &ExtendBuilder{} }

// MaxKeptScratch is the largest scratch capacity, in edges, a builder keeps
// from one build to the next. Steady-state deltas fit well inside it; a
// larger buffer is released after its build, so that one large build (a
// backfill, a snapshot after a long gap) does not pin O(|E|) scratch for the
// rest of the graph's life. The next large build just re-allocates.
const MaxKeptScratch = 1 << 16

// release drops *buf if a large build grew it past MaxKeptScratch.
func release(buf *[]Edge) {
	if cap(*buf) > MaxKeptScratch {
		*buf = nil
	}
}

func cmpUserMajor(a, b Edge) int {
	if a.U != b.U {
		if a.U < b.U {
			return -1
		}
		return 1
	}
	switch {
	case a.V < b.V:
		return -1
	case a.V > b.V:
		return 1
	}
	return 0
}

func cmpMerchantMajor(a, b Edge) int {
	if a.V != b.V {
		if a.V < b.V {
			return -1
		}
		return 1
	}
	switch {
	case a.U < b.U:
		return -1
	case a.U > b.U:
		return 1
	}
	return 0
}

// ExtendDelta returns the graph over (prev's edges \ deletes) ∪ inserts, with
// at least the given side sizes (they are raised to cover prev and every
// delta id, so passing the caller's tracked maxima is enough — note deleting
// a node's last edge never shrinks a side).
//
// The semantics are set-algebraic, so every overlap is well defined: an
// insert already present in prev (and not deleted) merges away, a delete
// naming an edge absent from prev is ignored, and an edge appearing in both
// lists ends up present — that is exactly the expire-then-reobserve lifecycle
// the stream layer produces between two snapshots. prev is never modified;
// inserts and deletes are read, not retained. It panics if prev's edges plus
// the distinct inserts could exceed MaxEdges.
func (b *ExtendBuilder) ExtendDelta(prev *Graph, inserts, deletes []Edge, numUsers, numMerchants int) *Graph {
	return b.extendDelta(prev, inserts, deletes, numUsers, numMerchants, transposeDenominator)
}

// extendDelta is ExtendDelta with the merchant-side layout's denominator as a
// parameter: 0 always merges, math.MaxInt transposes whenever anything
// changed.
func (b *ExtendBuilder) extendDelta(prev *Graph, inserts, deletes []Edge, numUsers, numMerchants, denom int) *Graph {
	if prev == nil {
		prev = &Graph{}
	}
	numUsers = max(numUsers, prev.NumUsers())
	numMerchants = max(numMerchants, prev.NumMerchants())
	for _, e := range inserts {
		numUsers = max(numUsers, int(e.U)+1)
		numMerchants = max(numMerchants, int(e.V)+1)
	}

	ud := sortDedupInto(&b.ud, inserts)
	dd := sortDedupInto(&b.dd, deletes)
	// A delete naming a row beyond prev cannot remove anything (deletes never
	// grow a side); drop them here — sorted user-major they are a suffix — so
	// the row-merge loop only ever visits rows that exist.
	for len(dd) > 0 && int(dd[len(dd)-1].U) >= prev.NumUsers() {
		dd = dd[:len(dd)-1]
	}

	uoff, uadj := b.mergeUserSide(prev, ud, dd, numUsers)

	// The user-side merge recorded the net effect of the delta: inserts that
	// were genuinely new (vd) and deletes that genuinely removed a prev edge
	// (vdel). The merchant side applies exactly those, sorted merchant-major,
	// so both CSR directions describe the same edge set, unless sorting them
	// would cost more than transposing the new user side outright.
	var moff []uint32
	var madj []uint32
	if denom == 0 || len(b.vd)+len(b.vdel) <= len(uadj)/denom {
		slices.SortFunc(b.vd, cmpMerchantMajor)
		slices.SortFunc(b.vdel, cmpMerchantMajor)
		moff, madj = mergeMerchantSide(prev, b.vd, b.vdel, numMerchants, len(uadj))
	} else {
		moff, madj = transpose(uoff, uadj, numMerchants)
	}
	release(&b.ud)
	release(&b.dd)
	release(&b.vd)
	release(&b.vdel)

	return &Graph{userOff: uoff, userAdj: uadj, merchOff: moff, merchAdj: madj}
}

// sortDedupInto copies edges into the reusable buffer at *buf, sorts them
// user-major and drops exact duplicates.
func sortDedupInto(buf *[]Edge, edges []Edge) []Edge {
	out := scratch.Grow(buf, len(edges))
	copy(out, edges)
	slices.SortFunc(out, cmpUserMajor)
	w := 0
	for i, e := range out {
		if i == 0 || e != out[i-1] {
			out[w] = e
			w++
		}
	}
	return out[:w]
}

// mergeUserSide lays out the user-major CSR: rows without delta edges are
// block-copied from prev (offsets shifted by the running net insertion
// count), rows with inserts or deletes are three-stream merged. Net inserts
// are collected into b.vd, net deletes into b.vdel.
func (b *ExtendBuilder) mergeUserSide(prev *Graph, ud, dd []Edge, numUsers int) ([]uint32, []uint32) {
	prevNU := prev.NumUsers()
	prevE := prev.NumEdges()
	mustFitEdges(uint64(prevE) + uint64(len(ud)))
	uoff := make([]uint32, numUsers+1)
	uadj := make([]uint32, prevE+len(ud))
	vd := b.vd[:0]
	vdel := b.vdel[:0]

	w := uint32(0) // write cursor into uadj
	u := 0         // next row to lay out
	di := 0        // cursor into ud
	ki := 0        // cursor into dd
	for di < len(ud) || ki < len(dd) {
		au := numUsers // next affected row
		if di < len(ud) {
			au = int(ud[di].U)
		}
		if ki < len(dd) && int(dd[ki].U) < au {
			au = int(dd[ki].U)
		}
		if u < au && u < prevNU {
			// Bulk-copy the untouched rows [u, min(au, prevNU)): one memcpy
			// for the adjacency, shifted offsets for the rows. The shift is
			// negative when deletes outnumber inserts so far; uint32
			// arithmetic wraps, and each shifted offset lands back in range.
			end := min(au, prevNU)
			lo, hi := prev.userOff[u], prev.userOff[end]
			copy(uadj[w:], prev.userAdj[lo:hi])
			shift := w - lo
			for i := u; i < end; i++ {
				uoff[i] = prev.userOff[i] + shift
			}
			w += hi - lo
			u = end
		}
		for ; u < au; u++ { // rows beyond prev with no delta: empty
			uoff[u] = w
		}

		// Merge row au: prev's sorted row against the insert and delete runs
		// for au.
		uoff[au] = w
		dj := di
		for dj < len(ud) && int(ud[dj].U) == au {
			dj++
		}
		kj := ki
		for kj < len(dd) && int(dd[kj].U) == au {
			kj++
		}
		var row []uint32
		if au < prevNU {
			row = prev.UserNeighbors(uint32(au))
		}
		ri := 0
		for ri < len(row) || di < dj {
			var v uint32
			switch {
			case di == dj || (ri < len(row) && row[ri] < ud[di].V):
				// Next merchant comes from prev alone: keep it unless the
				// delete run names it.
				v = row[ri]
				ri++
				for ki < kj && dd[ki].V < v {
					ki++ // delete of an edge prev does not have: no-op
				}
				if ki < kj && dd[ki].V == v {
					ki++
					vdel = append(vdel, Edge{U: uint32(au), V: v})
					continue
				}
			case ri < len(row) && row[ri] == ud[di].V:
				// In prev and re-inserted: present either way. A matching
				// delete is annihilated by the re-insert (expire + reobserve
				// between two snapshots), so the row — and the net lists —
				// carry no change for this edge.
				v = row[ri]
				ri++
				di++
				for ki < kj && dd[ki].V < v {
					ki++
				}
				if ki < kj && dd[ki].V == v {
					ki++
				}
			default:
				// Genuinely new edge. A delete naming it cannot refer to a
				// prev edge, so the insert wins and the delete is a no-op.
				v = ud[di].V
				di++
				for ki < kj && dd[ki].V < v {
					ki++
				}
				if ki < kj && dd[ki].V == v {
					ki++
				}
				vd = append(vd, Edge{U: uint32(au), V: v})
			}
			uadj[w] = v
			w++
		}
		ki = kj // drain deletes past the row's last emitted merchant
		u = au + 1
	}
	if u < prevNU { // untouched tail of prev
		lo, hi := prev.userOff[u], prev.userOff[prevNU]
		copy(uadj[w:], prev.userAdj[lo:hi])
		shift := w - lo // wraps when negative, as above
		for i := u; i < prevNU; i++ {
			uoff[i] = prev.userOff[i] + shift
		}
		w += hi - lo
		u = prevNU
	}
	for ; u <= numUsers; u++ {
		uoff[u] = w
	}
	b.vd = vd
	b.vdel = vdel
	return uoff, uadj[:w]
}

// mergeMerchantSide mirrors mergeUserSide for the merchant-major direction.
// vd holds only edges absent from prev and vdel only edges present in prev
// (the user-side merge computed the net effect), so neither list can collide
// with the other; the wantEdges cross-check catches any desync between the
// two directions.
func mergeMerchantSide(prev *Graph, vd, vdel []Edge, numMerchants, wantEdges int) ([]uint32, []uint32) {
	prevNM := prev.NumMerchants()
	prevE := prev.NumEdges()
	moff := make([]uint32, numMerchants+1)
	madj := make([]uint32, prevE+len(vd))

	w := uint32(0)
	v := 0
	di := 0
	ki := 0
	for di < len(vd) || ki < len(vdel) {
		av := numMerchants
		if di < len(vd) {
			av = int(vd[di].V)
		}
		if ki < len(vdel) && int(vdel[ki].V) < av {
			av = int(vdel[ki].V)
		}
		if v < av && v < prevNM {
			end := min(av, prevNM)
			lo, hi := prev.merchOff[v], prev.merchOff[end]
			copy(madj[w:], prev.merchAdj[lo:hi])
			shift := w - lo // wraps when negative, as in mergeUserSide
			for i := v; i < end; i++ {
				moff[i] = prev.merchOff[i] + shift
			}
			w += hi - lo
			v = end
		}
		for ; v < av; v++ {
			moff[v] = w
		}

		moff[av] = w
		dj := di
		for dj < len(vd) && int(vd[dj].V) == av {
			dj++
		}
		kj := ki
		for kj < len(vdel) && int(vdel[kj].V) == av {
			kj++
		}
		var row []uint32
		if av < prevNM {
			row = prev.MerchantNeighbors(uint32(av))
		}
		ri := 0
		for ri < len(row) || di < dj {
			if di == dj || (ri < len(row) && row[ri] < vd[di].U) {
				u := row[ri]
				ri++
				if ki < kj && vdel[ki].U == u {
					ki++ // net delete: this prev edge is gone
					continue
				}
				madj[w] = u
			} else {
				madj[w] = vd[di].U
				di++
			}
			w++
		}
		ki = kj
		v = av + 1
	}
	if v < prevNM {
		lo, hi := prev.merchOff[v], prev.merchOff[prevNM]
		copy(madj[w:], prev.merchAdj[lo:hi])
		shift := w - lo
		for i := v; i < prevNM; i++ {
			moff[i] = prev.merchOff[i] + shift
		}
		w += hi - lo
		v = prevNM
	}
	for ; v <= numMerchants; v++ {
		moff[v] = w
	}
	if int(w) != wantEdges {
		panic(fmt.Sprintf("bipartite: extend desync: user side has %d edges, merchant side %d", wantEdges, w))
	}
	return moff, madj[:w]
}

// transposeDenominator decides how ExtendDelta lays out the merchant side:
// it merges the net changes into prev's merchant rows while they number at
// most |E| / denominator, and transposes the new user side past that.
// The merge sorts the changes merchant-major and copies untouched rows in
// bulk; the transpose sorts nothing but writes every edge to a scattered
// slot. On 1<<20 random edges (2 vCPU) they cost the same at about 4 % churn.
const transposeDenominator = 32

// transpose lays out the merchant-major direction of a user-major CSR by
// counting: O(|E| + numMerchants), no sort. Users are visited in order, so
// every merchant row comes out sorted.
func transpose(uoff, uadj []uint32, numMerchants int) ([]uint32, []uint32) {
	moff := make([]uint32, numMerchants+1)
	for _, v := range uadj {
		moff[v+1]++
	}
	for i := 1; i <= numMerchants; i++ {
		moff[i] += moff[i-1]
	}
	madj := make([]uint32, len(uadj))
	for u := 0; u+1 < len(uoff); u++ {
		for _, v := range uadj[uoff[u]:uoff[u+1]] {
			madj[moff[v]] = uint32(u)
			moff[v]++
		}
	}
	// moff[v] has advanced to the end of row v, which is where row v+1 starts.
	copy(moff[1:], moff[:numMerchants])
	moff[0] = 0
	return moff, madj
}

// Rebuild constructs the graph from a complete edge list, exactly as
// Builder.Build would: the stream's first snapshot, which has no previous
// graph to merge into. edges is sorted in place and not retained, so callers
// may hand in a reusable scratch buffer. Like Build it panics past MaxEdges.
func (b *ExtendBuilder) Rebuild(numUsers, numMerchants int, edges []Edge) *Graph {
	for _, e := range edges {
		numUsers = max(numUsers, int(e.U)+1)
		numMerchants = max(numMerchants, int(e.V)+1)
	}
	return buildFromEdges(numUsers, numMerchants, edges)
}

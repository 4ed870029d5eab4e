// Package stream provides the mutable front half of the serving pipeline: a
// concurrency-safe dynamic bipartite graph that accepts batched edge appends
// as purchases arrive, retires edges that age out of a configured window, and
// hands out immutable bipartite.Graph snapshots for detection.
//
// The paper's ensemble (and every algorithm in this repository) works on an
// immutable dual-CSR Graph. A production ingest path cannot rebuild that CSR
// per purchase, so Graph keeps the edges since the last snapshot in
// per-shard dedup sets, materializes CSR snapshots lazily, caching one
// snapshot per version, and keeps the edges a snapshot absorbed in that
// snapshot's CSR alone.
//
// # Sharded ingest
//
// The graph is split into P shards partitioning the user-id space (an edge
// lives in the shard of its user, selected by the id's low bits so dense,
// growing id ranges stay balanced). Each shard has its own lock and dedup
// sets, so concurrent producers writing different shards never contend. A
// single monotonic version survives the split: every batch that adds at
// least one edge bumps one atomic counter, and appends run under the read
// half of a commit lock whose write half lets the snapshot path capture a
// consistent cut — an edge is visible to a capture iff its batch's version
// bump is. Only a windowed graph keeps a shard log: a plain edge array in
// append order plus a run table, where each batch that adds edges to a shard
// appends one stamp row covering the entries it appended, carrying the
// version and wall time the batch committed as. An edge costs 8 bytes and a
// (batch, shard) run 24 more, and the rows are what the window policy
// (window.go) ages edges by.
//
// # Incremental snapshots with deletions
//
// Each shard's pending set holds the edges appended since the latest
// capture, and removals collect the edges they take from below it (from the
// captured snapshot) into a pending-deletes list. A snapshot capture
// therefore yields exactly the delta since the previous snapshot — the keys
// of every shard's pending set plus the pending deletes — and hands both to
// bipartite.ExtendBuilder.ExtendDelta, which sorts them and merges them into
// the previous CSR. Only the first capture, with no previous CSR to merge
// into, sorts its edges from scratch. A capture gives each shard a fresh set
// and reads the old ones after it releases the commit lock, so producers
// keep appending while the build runs. The built snapshot is published
// through an atomic pointer under the single-flight build lock, so a slow
// store can never stall ingest.
//
// # One resident copy
//
// Without a window policy nothing reads an edge's append order or stamp, so
// a shard keeps no log: an edge appended since the last capture lives once,
// as a key of its shard's pending set, and one a capture absorbed lives only
// in the base (below), which is what Remove deletes it from. A window needs
// every live edge's stamp in append order, so a windowed shard logs every
// live edge, below its baseline mark (in the captured snapshot) and past it
// (pending). Whether a graph has a window is fixed at birth (SetWindow runs
// on a fresh graph only), so an unwindowed graph never needs a log.
//
// # Deduplication against the captured snapshot
//
// Dedup asks the captured CSR (a binary search in the user's row) and two
// small per-shard sets, which only hold what changed since the capture: an
// edge is live iff it is in its shard's pending set (appended at or past the
// shard's baseline mark), or it is in the base and not in its shard's
// removed set (taken from below the mark by a retire pass or Remove). A
// capture moves the shard sets into the base and gives every shard fresh,
// empty sets; until the build publishes, the base answers from the previous
// CSR with the absorbed sets applied, which is exactly the edge set the
// build produces, so the publish swaps the base with no lock. Before the
// first capture the pending sets hold every live edge.
package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/scratch"
	"ensemfdet/internal/u64set"
)

// DefaultShards returns the shard count New picks: GOMAXPROCS rounded up to
// a power of two, clamped to [1, MaxShards].
func DefaultShards() int {
	p := 1
	for p < runtime.GOMAXPROCS(0) && p < MaxShards {
		p <<= 1
	}
	return p
}

// MaxShards bounds the shard count. Shards beyond the core count only add
// scan overhead to batched appends, and captures walk every shard.
const MaxShards = 64

// stampRun is one row of a shard's run table: the entries from the previous
// row's end up to end were appended by one batch, which committed as version
// ver at wall time at. The stamps drive the window policy: age in versions
// compares ver, age in wall time compares at.
//
// Rows are reserved in append order, under the shard lock, and stamped when
// the batch commits; two batches on one shard can commit out of append
// order, so versions are not monotone along a shard's table. Rows are read
// only under the commit lock's write half, when no batch is between its
// append and its stamp, so a reader never sees a reserved, unstamped row.
type stampRun struct {
	end int
	ver uint64
	at  int64 // unix nanoseconds
}

// Graph is a mutable, concurrency-safe dynamic bipartite graph. The zero
// value is not usable; construct with New or NewSharded. All methods are
// safe for concurrent use.
type Graph struct {
	shards []shard
	mask   uint32 // len(shards) - 1; shard of user u is u & mask

	// commitMu makes (version, shard logs) capturable as one consistent cut:
	// appends hold the read half for the whole batch (shard writes + version
	// bump), while captures and retire passes take the write half. Appends
	// therefore only serialize against captures, retires, and same-shard
	// writers, never each other.
	commitMu sync.RWMutex
	version  atomic.Uint64
	// lastIngest is the version of the newest adding batch. The version-age
	// window measures against it rather than version itself: retire passes
	// bump version too, and aging against that would make an idle graph
	// slide its own window until it drained.
	lastIngest atomic.Uint64

	// journal, when set, receives every batch that added edges and every
	// retire pass that removed edges, tagged with the version the change
	// committed as. It is read under commitMu (read half for appends, write
	// half for retires) and swapped under the write half, so a change never
	// races the tee.
	journal Journal

	// now supplies ingest timestamps; it exists so tests can drive the
	// wall-clock window deterministically.
	now func() time.Time

	// Size counters, updated once per touched shard per batch; reads are
	// lock-free and exact whenever no append is in flight.
	numEdges     atomic.Int64
	numUsers     atomic.Int64
	numMerchants atomic.Int64

	// pendingDel accumulates edges that retire passes and Remove took from
	// below the shards' baseline marks — edges the previous snapshot still
	// contains. The next capture consumes it as the delete half of the delta.
	// Guarded by commitMu's write half (removals and captures all hold it).
	pendingDel []bipartite.Edge

	// Window state: the policy, written once by SetWindow before the graph
	// is shared, and the expiry watermark (no live edge carries a stamp at or
	// below the mark). See window.go.
	window   WindowPolicy
	markVer  atomic.Uint64
	markWall atomic.Int64

	retiredTotal atomic.Uint64
	retirePasses atomic.Uint64
	retireNs     atomic.Int64
	journalErrs  atomic.Uint64

	// groupScratch pools per-append batch-grouping state (multi-shard only).
	groupScratch sync.Pool

	// base is the edge set below the shards' baseline marks, which dedup
	// asks before the shard sets (see edgeBase). A capture stores the
	// interim base under commitMu's write half; the build's publish stores
	// the built CSR alone, with no lock, since both answer alike.
	base atomic.Pointer[edgeBase]

	buildMu sync.Mutex               // single-flights cold snapshot builds
	snap    atomic.Pointer[snapshot] // published under buildMu, read lock-free
	ext     *bipartite.ExtendBuilder // build arena, guarded by buildMu
	edgeBuf []bipartite.Edge         // insert scratch, guarded by buildMu

	deltaBuilds  atomic.Uint64
	fullBuilds   atomic.Uint64
	deltaBuildNs atomic.Int64
	fullBuildNs  atomic.Int64

	// Touched-node history (delta.go): which users/merchants each committed
	// version changed, bounded by histLimit summed endpoints. histMu is a
	// leaf lock acquired below commitMu (either half) and the shard locks.
	histMu    sync.Mutex
	hist      []deltaRec // live records are hist[histHead:]
	histHead  int
	histNodes int
	histFloor uint64 // Delta ranges starting below this are unanswerable
	histLimit int
}

// shard is one user-range partition of the graph. The padding keeps hot
// shard headers on distinct cache lines so uncontended shards stay
// uncontended at the hardware level too.
type shard struct {
	mu sync.Mutex
	// pending holds the keys of the edges appended since the last capture
	// (entries[snapMark:] on a windowed graph): the next capture's inserts.
	// removed holds the keys retire passes and Remove took from below the
	// capture since then: this shard's part of pendingDel, as a set. Both are
	// written under the shard lock and the commit lock's write half moves
	// them into the base at a capture.
	pending u64set.Set
	removed u64set.Set
	// entries is the log of a windowed graph: every live edge of the shard,
	// in append order. Appends only ever append, and removals rewrite
	// survivors into a fresh backing array, preserving order. A graph without
	// a window keeps no log, and entries stays nil.
	entries []bipartite.Edge
	// runs stamps entries: one row per (batch, shard), sorted by end, the
	// last row ending at len(entries). See stampRun. Nil without a window.
	runs []stampRun
	// snapMark is the baseline boundary of a windowed log: entries below it
	// are contained in the latest captured snapshot, entries at or past it
	// are pending. Written by captures, removals and RestoreAt (commitMu
	// write half). Always 0 on a graph without a window, which has no log.
	snapMark int
	// live counts the shard's live edges, in the log or in the base alone.
	live int
	_    [64]byte
}

// edgeBase is an immutable edge set: the one below the shards' baseline
// marks. After a publish it is the built CSR alone. Between a capture and
// its publish it is the previous CSR with the sets the capture absorbed
// applied, per shard: the edges in pending, plus the CSR's edges not in
// removed. That is the edge set the build produces from the same delta.
type edgeBase struct {
	csr     *bipartite.Graph // nil before the first capture
	pending []u64set.Set     // nil once published
	removed []u64set.Set
}

// has reports whether edge e, with key k, of shard si is in the base.
func (b *edgeBase) has(si int, e bipartite.Edge, k uint64) bool {
	if b == nil {
		return false
	}
	if b.pending != nil {
		if b.pending[si].Has(k) {
			return true
		}
		if b.removed[si].Has(k) {
			return false
		}
	}
	return b.csr != nil && b.csr.HasEdge(e.U, e.V)
}

// snapshot pins a built CSR to the version it reflects and the window
// watermark current at its capture.
type snapshot struct {
	g       *bipartite.Graph
	version uint64
	mark    WindowMark
}

// New returns an empty dynamic graph at version 0 with DefaultShards shards.
func New() *Graph { return NewSharded(0) }

// NewSharded returns an empty dynamic graph with the given shard count,
// rounded up to a power of two and clamped to [1, MaxShards]; 0 selects
// DefaultShards. Shard count affects only write concurrency: snapshots, and
// therefore detection results, are byte-identical across shard counts.
func NewSharded(shards int) *Graph {
	if shards <= 0 {
		shards = DefaultShards()
	}
	p := 1
	for p < shards && p < MaxShards {
		p <<= 1
	}
	g := &Graph{
		shards: make([]shard, p),
		mask:   uint32(p - 1),
		ext:    bipartite.NewExtendBuilder(),
		//ensemfdet:nondeterministic-ok the clock drives window aging only; votes key on logical versions
		now:       time.Now,
		histLimit: DefaultDeltaHistoryNodes,
	}
	g.groupScratch.New = func() any { return new(groupScratch) }
	return g
}

// NumShards returns the shard count chosen at construction.
func (g *Graph) NumShards() int { return len(g.shards) }

func edgeKey(e bipartite.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// AppendResult summarizes one batched append.
type AppendResult struct {
	// Added is the number of edges not previously present.
	Added int
	// Duplicates is the number of edges skipped because they were already
	// in the graph (or repeated within the batch).
	Duplicates int
	// Version is the graph version after the append. It exceeds the
	// pre-append version iff Added > 0.
	Version uint64
	// Stats is the graph size immediately after this append. It is exact
	// when no other writer races this batch; concurrent batches may be
	// partially included.
	Stats Stats
	// Err reports a journal (durability) failure: the batch is committed in
	// memory, but the write-ahead log did not acknowledge it, so it may not
	// survive a restart. Callers serving durable ingest must fail the
	// request; a retry is safe because appends deduplicate.
	Err error
}

// Journal is the persistence tee: when installed via SetJournal, every batch
// that adds at least one edge is handed to AppendEdges, and every retire
// pass (or explicit Remove) that removes at least one edge is handed to
// RetireEdges, each with the version the change committed as, before the
// mutating call returns. The full pre-dedup batch is journaled — replaying
// it through Append is idempotent — and retire records carry the exact edges
// removed, so replaying them through Remove reproduces the deletion without
// re-evaluating any window policy. Implementations are called concurrently
// (one call per in-flight batch; RetireEdges is serialized by the commit
// lock) and must serialize internally; internal/persist.Store is the
// production implementation.
type Journal interface {
	AppendEdges(version uint64, edges []bipartite.Edge) error
	// RetireEdges receives the exact removed edges plus the window watermark
	// after the pass, so replay restores expiry progress (AdvanceMarkTo)
	// along with the deletion — the watermark advances between snapshots,
	// and without it in the record a crash would roll expiry progress back
	// to the last snapshot's mark.
	RetireEdges(version uint64, edges []bipartite.Edge, mark WindowMark) error
}

// SetJournal installs (or, with nil, removes) the durability tee. Install it
// after recovery has replayed any existing log and before accepting traffic;
// batches appended while no journal is set are not persisted.
func (g *Graph) SetJournal(j Journal) {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	g.journal = j
}

// RestoreAt seeds an empty dynamic graph from a recovered snapshot, adopting
// its version and window watermark. The snapshot is pre-published as the
// graph's cached CSR snapshot and becomes the dedup base, so the first
// post-boot Snapshot — and every delta build after it — starts from the
// recovered arrays instead of rebuilding O(|E|) state, and the shard dedup
// sets start empty. Without a window policy that is all: the edges live in
// the base alone, as after any capture, and the shard logs start empty.
//
// A windowed graph (SetWindow runs first) also fills its shard logs from the
// snapshot's user rows. Restored edges share one stamp row per shard: the
// snapshot's version and wall (the time the snapshot was written; 0 falls
// back to now): their original per-batch stamps are not persisted, so for
// windowing purposes the whole recovered set is treated as ingested when the
// snapshot was cut. The window therefore never expires a recovered edge
// earlier than the live run would have — it can only retain it a little
// longer, and steady-state traffic re-converges the stamps.
//
// RestoreAt must run before any Append and before SetJournal; snap must be a
// canonical CSR (one produced by this package's Snapshot or the bipartite
// codec, whose validation rejects unsorted or repeated row entries), or
// later incremental snapshots would diverge from full rebuilds.
func (g *Graph) RestoreAt(snap *bipartite.Graph, version uint64, mark WindowMark, wall int64) error {
	if g.version.Load() != 0 || g.numEdges.Load() != 0 {
		return errors.New("stream: RestoreAt requires an empty graph")
	}
	g.markVer.Store(mark.Version)
	g.markWall.Store(mark.Wall)
	if snap == nil {
		g.version.Store(version)
		g.lastIngest.Store(version)
		return nil
	}
	if wall == 0 {
		wall = g.now().UnixNano()
	}
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	nu := snap.NumUsers()
	for u := 0; u < nu; u++ {
		g.shards[uint32(u)&g.mask].live += snap.UserDegree(uint32(u))
	}
	if g.window.Enabled() {
		// Every restored edge goes below its shard's mark, under one row
		// stamped at the snapshot.
		for i := range g.shards {
			sh := &g.shards[i]
			if sh.live > 0 {
				sh.entries = make([]bipartite.Edge, 0, sh.live)
				sh.runs = []stampRun{{end: sh.live, ver: version, at: wall}}
				sh.snapMark = sh.live
			}
		}
		for u := 0; u < nu; u++ {
			sh := &g.shards[uint32(u)&g.mask]
			for _, v := range snap.UserNeighbors(uint32(u)) {
				sh.entries = append(sh.entries, bipartite.Edge{U: uint32(u), V: v})
			}
		}
	}
	g.numEdges.Store(int64(snap.NumEdges()))
	atomicMax(&g.numUsers, int64(nu))
	atomicMax(&g.numMerchants, int64(snap.NumMerchants()))
	g.base.Store(&edgeBase{csr: snap})
	g.snap.Store(&snapshot{g: snap, version: version, mark: mark})
	g.version.Store(version)
	g.lastIngest.Store(version)
	// The adopted version starts a fresh history: nothing below it is
	// answerable as a delta.
	g.histReset(version)
	return nil
}

// Append records a batch of purchase edges, deduplicating against everything
// currently live. The version counter advances once per batch that adds at
// least one new edge, so an idempotent retry of the same batch leaves the
// version — and therefore every cached detection — intact. An edge that was
// retired by the window is no longer live, so re-observing it re-ingests it
// with fresh stamps. The batch is committed shard by shard: a
// concurrent snapshot may observe a prefix of a large multi-shard batch, but
// never a torn shard.
func (g *Graph) Append(edges []bipartite.Edge) AppendResult {
	g.commitMu.RLock()
	defer g.commitMu.RUnlock()
	at := g.now().UnixNano()

	var res AppendResult
	var maxU, maxV int64 = -1, -1
	base := g.base.Load()
	logged := g.window.Enabled()
	if len(g.shards) == 1 {
		row, added := g.shards[0].appendRun(0, base, logged, edges, &res.Duplicates, &maxU, &maxV)
		res.Added = added
		if res.Added > 0 {
			g.numEdges.Add(int64(res.Added))
			g.commitBatch(&res, edges, func(ver uint64) {
				g.shards[0].stamp(row, ver, at)
			})
		}
	} else {
		// Counting-sort the batch into shard-contiguous runs first, so each
		// shard lock is taken once over its run instead of scanning the
		// whole batch per shard. The grouping scratch is pooled: steady-state
		// appends allocate nothing.
		gs := g.groupScratch.Get().(*groupScratch)
		grouped := gs.group(edges, g.mask)
		rows := scratch.Grow(&gs.rows, len(g.shards))
		added := scratch.Grow(&gs.added, len(g.shards))
		for si := range g.shards {
			added[si] = 0
			run := grouped[gs.off[si]:gs.off[si+1]]
			if len(run) == 0 {
				continue
			}
			row, n := g.shards[si].appendRun(si, base, logged, run, &res.Duplicates, &maxU, &maxV)
			if n > 0 {
				g.numEdges.Add(int64(n))
				res.Added += n
				rows[si], added[si] = row, n
			}
		}
		if res.Added > 0 {
			g.commitBatch(&res, edges, func(ver uint64) {
				for si := range g.shards {
					if added[si] > 0 {
						g.shards[si].stamp(rows[si], ver, at)
					}
				}
			})
		}
		g.groupScratch.Put(gs)
	}
	if res.Added > 0 {
		atomicMax(&g.numUsers, maxU+1)
		atomicMax(&g.numMerchants, maxV+1)
	} else {
		res.Version = g.version.Load()
	}
	res.Stats = Stats{
		Version:      res.Version,
		NumUsers:     int(g.numUsers.Load()),
		NumMerchants: int(g.numMerchants.Load()),
		NumEdges:     int(g.numEdges.Load()),
	}
	return res
}

// commitBatch finishes an adding batch while still under the commit read
// lock: it bumps the version, stamps the batch's reserved run rows with it
// on a windowed graph (the stamp callback re-takes each touched shard lock;
// the row indices are stable because retires need the commit write half),
// and tees the batch into the journal. A snapshot capture at version V therefore never completes
// before every batch with version ≤ V has been stamped and offered to the
// log, which is what makes truncating the log at a snapshot's watermark safe.
// The full pre-dedup batch is journaled; replay re-deduplicates.
func (g *Graph) commitBatch(res *AppendResult, edges []bipartite.Edge, stamp func(ver uint64)) {
	res.Version = g.version.Add(1)
	atomicMaxU64(&g.lastIngest, res.Version)
	if g.window.Enabled() {
		stamp(res.Version)
	}
	g.histRecord(res.Version, edges, res.Added, 0)
	if g.journal != nil {
		if err := g.journal.AppendEdges(res.Version, edges); err != nil {
			res.Err = fmt.Errorf("stream: journal append at version %d: %w", res.Version, err)
		}
	}
}

// appendRun folds a slice of edges, all belonging to this shard si (or the
// only shard), into the shard under its lock, and returns the number added.
// An edge is a duplicate if the base holds it and this shard has not removed
// it since, or if it is already pending; otherwise it joins pending, and, if
// logged (the graph has a window), the log. A logged run that added entries
// reserves the run-table row covering them and returns that row's index; the
// batch commit stamps the row once the batch's version is known. The index
// stays valid because concurrent batches only append rows past it and retire
// passes exclude appends entirely.
func (s *shard) appendRun(si int, base *edgeBase, logged bool, run []bipartite.Edge, dups *int, maxU, maxV *int64) (row, added int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range run {
		k := edgeKey(e)
		if (base.has(si, e, k) && !s.removed.Has(k)) || !s.pending.Add(k) {
			*dups++
			continue
		}
		if logged {
			s.entries = append(s.entries, e)
		}
		added++
		if int64(e.U) > *maxU {
			*maxU = int64(e.U)
		}
		if int64(e.V) > *maxV {
			*maxV = int64(e.V)
		}
	}
	s.live += added
	if !logged || added == 0 {
		return 0, added
	}
	s.runs = append(s.runs, stampRun{end: len(s.entries)})
	return len(s.runs) - 1, added
}

// stamp writes the batch's version and ingest time into the row appendRun
// reserved for it.
func (s *shard) stamp(row int, ver uint64, at int64) {
	s.mu.Lock()
	s.runs[row].ver = ver
	s.runs[row].at = at
	s.mu.Unlock()
}

// groupScratch is reusable per-append grouping state: a shard-major
// permutation of the batch plus the run offsets and per-shard stamp rows.
type groupScratch struct {
	buf   []bipartite.Edge
	off   []int // len shards+1 after group; off[s]:off[s+1] is shard s's run
	cur   []int
	rows  []int
	added []int
}

// group scatters edges into shard-contiguous runs in gs.buf and returns the
// permuted batch; gs.off holds the run boundaries.
func (gs *groupScratch) group(edges []bipartite.Edge, mask uint32) []bipartite.Edge {
	shards := int(mask) + 1
	buf := scratch.Grow(&gs.buf, len(edges))
	off := scratch.GrowZero(&gs.off, shards+1)
	cur := scratch.Grow(&gs.cur, shards)
	for _, e := range edges {
		off[(e.U&mask)+1]++
	}
	for s := 0; s < shards; s++ {
		off[s+1] += off[s]
		cur[s] = off[s]
	}
	for _, e := range edges {
		s := e.U & mask
		buf[cur[s]] = e
		cur[s]++
	}
	return buf
}

// atomicMax raises *a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// atomicMaxU64 raises *a to v if v is larger.
func atomicMaxU64(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Version returns the current graph version. Version 0 is the empty graph.
func (g *Graph) Version() uint64 { return g.version.Load() }

// AdvanceVersionTo raises the version counter to v if it is currently
// lower. It exists for WAL replay: a crash can leave a version hole — a
// batch that failed to journal, or one record of a concurrent pair torn
// from the log tail — and replaying the surviving records (edge batches and
// tombstones alike) then advancing to each record's original version keeps
// recovered version labels (and therefore vote-cache keys) identical to what
// acknowledged clients saw, instead of silently renumbering everything after
// the hole.
func (g *Graph) AdvanceVersionTo(v uint64) {
	for {
		cur := g.version.Load()
		if v <= cur {
			return
		}
		if g.version.CompareAndSwap(cur, v) {
			// The jump means versions in (cur, v) exist in the WAL's history
			// but not in ours; deltas spanning the hole would silently claim
			// nothing changed across it.
			g.histReset(v)
			return
		}
	}
}

// ForceVersionTo sets the version counter to exactly v — lower included,
// which AdvanceVersionTo can never do. It exists for epoch-boundary resyncs
// in failover: a follower whose history forked from a newly promoted primary
// is diffed onto the primary's snapshot and must then adopt the snapshot's
// version even though its own (abandoned-timeline) counter is higher.
// Runs under the commit write lock so no in-flight append commits across the
// change; the cached CSR snapshot keyed to the old version is invalidated by
// the mismatch on its next read.
func (g *Graph) ForceVersionTo(v uint64) {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	g.version.Store(v)
	g.lastIngest.Store(v)
	// An epoch resync adopts another timeline's version labels; nothing in
	// the local history relates to them.
	g.histReset(v)
}

// ForceMarkTo sets the window expiry watermark to exactly mark — lower
// included. Like ForceVersionTo it exists for epoch-boundary resyncs, where
// the adopted snapshot's watermark replaces the abandoned timeline's.
func (g *Graph) ForceMarkTo(mark WindowMark) {
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	g.markVer.Store(mark.Version)
	g.markWall.Store(mark.Wall)
}

// Stats is a point-in-time size summary of the dynamic graph.
type Stats struct {
	Version      uint64 `json:"version"`
	NumUsers     int    `json:"num_users"`
	NumMerchants int    `json:"num_merchants"`
	NumEdges     int    `json:"num_edges"`
}

// Stats returns the current version and side/edge counts. The reads are
// lock-free; values are exact whenever no append is in flight. NumEdges is
// the live (windowed) count; side sizes never shrink, because node ids are
// dense indices and a fully expired user keeps its id.
func (g *Graph) Stats() Stats {
	return Stats{
		Version:      g.version.Load(),
		NumUsers:     int(g.numUsers.Load()),
		NumMerchants: int(g.numMerchants.Load()),
		NumEdges:     int(g.numEdges.Load()),
	}
}

// ShardSize reports one shard's live edge count.
type ShardSize struct {
	Shard    int `json:"shard"`
	NumEdges int `json:"num_edges"`
}

// ShardSizes returns the per-shard live edge counts, for observability.
func (g *Graph) ShardSizes() []ShardSize {
	out := make([]ShardSize, len(g.shards))
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		out[i] = ShardSize{Shard: i, NumEdges: s.live}
		s.mu.Unlock()
	}
	return out
}

// BuildStats counts snapshot constructions by kind, with cumulative build
// time; the delta/full ratio is the health signal of the incremental path.
type BuildStats struct {
	DeltaBuilds   uint64        `json:"delta_builds"`
	FullBuilds    uint64        `json:"full_builds"`
	DeltaBuildDur time.Duration `json:"delta_build_ns"`
	FullBuildDur  time.Duration `json:"full_build_ns"`
}

// BuildStats returns cumulative snapshot-build counters.
func (g *Graph) BuildStats() BuildStats {
	return BuildStats{
		DeltaBuilds:   g.deltaBuilds.Load(),
		FullBuilds:    g.fullBuilds.Load(),
		DeltaBuildDur: time.Duration(g.deltaBuildNs.Load()),
		FullBuildDur:  time.Duration(g.fullBuildNs.Load()),
	}
}

// Snapshot returns an immutable CSR view of the graph and the version it
// reflects. The result is cached: repeated calls at an unchanged version
// return the same *bipartite.Graph, so snapshotting is O(1) between appends.
// Cold builds are single-flighted — a burst of snapshotters after an ingest
// performs one capture and one build, not one per caller — and incremental:
// when a previous snapshot exists and the churn since it (appended edges
// plus retired edges) is small, the new CSR is merged from (previous
// snapshot, inserts, deletes) instead of rebuilt from all |E| edges. The
// returned graph is never mutated by later appends or retires, and is
// byte-identical for a given live edge set regardless of shard count, append
// order, retire schedule, or which build path produced it.
func (g *Graph) Snapshot() (*bipartite.Graph, uint64) {
	s := g.snapshotInternal()
	return s.g, s.version
}

// SnapshotWithMark is Snapshot plus the window watermark captured atomically
// with the CSR cut — the persistence layer stores it in the snapshot file so
// recovery adopts a watermark consistent with the recovered edge set.
func (g *Graph) SnapshotWithMark() (*bipartite.Graph, uint64, WindowMark) {
	s := g.snapshotInternal()
	return s.g, s.version, s.mark
}

func (g *Graph) snapshotInternal() *snapshot {
	if s := g.snap.Load(); s != nil && s.version == g.version.Load() {
		return s
	}
	// Serialize builders; losers of the race re-check the cache the winner
	// just filled. Append never takes buildMu, so ingest is unaffected.
	g.buildMu.Lock()
	defer g.buildMu.Unlock()
	if s := g.snap.Load(); s != nil && s.version == g.version.Load() {
		return s
	}
	prev := g.snap.Load()
	g.commitMu.Lock()
	c := g.captureLocked(prev)
	g.commitMu.Unlock()
	return g.publish(g.buildLocked(prev, c), c)
}

// cut is one capture: version, side sizes, watermark, every shard's pending
// set (the inserts since the previous capture) and the deletes since then.
type cut struct {
	version uint64
	nu, nm  int
	mark    WindowMark
	ins     []u64set.Set
	insLen  int
	dels    []bipartite.Edge
}

// captureLocked takes a consistent cut. It is also the baseline advance —
// each shard's snapMark moves to its log end, the delete list is taken, and
// the shard dedup sets move into the interim base — because the build that
// follows always completes and publishes, making this cut the next delta's
// starting point. The moved pending sets are the cut's inserts: nothing
// writes them again, so the build reads them after the commit lock is
// released, and the hold time is O(shards), not O(edges) — ingest stalls for
// the capture, never for the build. Requires buildMu and the commit write
// lock; prev is the published snapshot the build will extend.
func (g *Graph) captureLocked(prev *snapshot) cut {
	c := cut{
		version: g.version.Load(),
		nu:      int(g.numUsers.Load()),
		nm:      int(g.numMerchants.Load()),
		mark:    WindowMark{Version: g.markVer.Load(), Wall: g.markWall.Load()},
		ins:     make([]u64set.Set, len(g.shards)),
		dels:    g.pendingDel,
	}
	interim := &edgeBase{pending: c.ins, removed: make([]u64set.Set, len(g.shards))}
	if prev != nil {
		interim.csr = prev.g
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.snapMark = len(sh.entries)
		c.insLen += sh.pending.Len()
		// Fresh zero-value sets regrow from the minimum table: a cleared
		// table would keep its high-water capacity.
		c.ins[i], sh.pending = sh.pending, u64set.Set{}
		interim.removed[i], sh.removed = sh.removed, u64set.Set{}
	}
	g.base.Store(interim)
	g.pendingDel = nil
	return c
}

// buildLocked builds the CSR of cut c: merged from prev and the delta, or,
// for the first capture, sorted from the inserts alone. The inserts come out
// of the pending sets in table order; both builds sort them. Requires
// buildMu, which guards the build scratch.
func (g *Graph) buildLocked(prev *snapshot, c cut) *bipartite.Graph {
	//ensemfdet:nondeterministic-ok build timing feeds the *BuildNs metrics, never the built graph
	start := time.Now()
	ins := scratch.Grow(&g.edgeBuf, c.insLen)[:0]
	for i := range c.ins {
		for k := range c.ins[i].Keys() {
			ins = append(ins, bipartite.Edge{U: uint32(k >> 32), V: uint32(k)})
		}
	}
	// A large delta grows the concat scratch to its size; steady-state
	// captures need a fraction of that. Release oversized buffers rather
	// than pinning them for the graph's lifetime.
	g.edgeBuf = ins
	if cap(ins) > bipartite.MaxKeptScratch {
		g.edgeBuf = nil
	}
	if prev == nil {
		// No deletes yet: they come from below a mark, which only a capture
		// sets.
		built := g.ext.Rebuild(c.nu, c.nm, ins)
		g.fullBuilds.Add(1)
		//ensemfdet:nondeterministic-ok metrics-only duration
		g.fullBuildNs.Add(int64(time.Since(start)))
		return built
	}
	built := g.ext.ExtendDelta(prev.g, ins, c.dels, c.nu, c.nm)
	g.deltaBuilds.Add(1)
	//ensemfdet:nondeterministic-ok metrics-only duration
	g.deltaBuildNs.Add(int64(time.Since(start)))
	return built
}

// publish makes built the cached snapshot of cut c and the dedup base. The
// base swap needs no lock: the interim base the capture stored holds the
// same edge set.
func (g *Graph) publish(built *bipartite.Graph, c cut) *snapshot {
	ns := &snapshot{g: built, version: c.version, mark: c.mark}
	g.base.Store(&edgeBase{csr: built})
	g.snap.Store(ns)
	return ns
}

package stream

import (
	"fmt"
	"slices"
	"time"

	"ensemfdet/internal/bipartite"
)

// This file is the sliding-window half of the dynamic graph: a WindowPolicy
// bounds how long (in wall time or versions) or how many edges the graph
// retains, Retire applies it, and Remove deletes an explicit edge set (the
// primitive WAL tombstone replay uses). Both run under the commit lock's
// write half, so a retire is a version bump exactly like an adding append:
// snapshots observe either none or all of it, the journal tee sees it before
// the mutating call returns, and the vote cache invalidates naturally.

// WindowPolicy bounds the live edge set. Any combination of the three limits
// may be set; an edge is retired when it violates any of them. The zero
// value disables windowing.
type WindowPolicy struct {
	// MaxAge retires edges whose ingest wall time is older than now−MaxAge
	// at the next retire pass. 0 disables the age bound.
	MaxAge time.Duration `json:"max_age_ns"`
	// MaxVersions keeps only the newest MaxVersions ingest versions: an edge
	// retires once it is MaxVersions or more adding batches older than the
	// newest ingest (retire passes bump the version too but never age the
	// window). 0 disables the version bound.
	MaxVersions uint64 `json:"max_versions"`
	// MaxEdges caps the live edge count: when exceeded, edges are retired
	// oldest-version-first, and within the boundary version the canonically
	// smallest (user, merchant) pairs go first, so the pass lands exactly on
	// the cap. Both rules make the retired set a pure function of the ingest
	// history — independent of shard count and scan order — which is what
	// pins windowed snapshots byte-identical across shard counts; canonical
	// ordering within one version is also what keeps a recovered graph
	// (whose whole restored history shares one version stamp) from being
	// evicted wholesale the first time the cap trips. 0 disables the count
	// bound.
	MaxEdges int `json:"max_edges"`
}

// Enabled reports whether any bound is set.
func (p WindowPolicy) Enabled() bool {
	return p.MaxAge > 0 || p.MaxVersions > 0 || p.MaxEdges > 0
}

// WindowMark is the expiry watermark: every live edge carries an ingest
// version stamp strictly above Version, and (when wall-time windowing has
// run) a wall stamp strictly above Wall. Snapshots persist the mark so a
// recovered graph knows how far expiry had progressed — no restart can
// resurrect an edge the window already retired, because tombstones are
// replayed from the WAL and pre-snapshot deletions are simply absent from
// the snapshot itself; the mark carries the *progress state* across the
// boundary for observability and stamp adoption.
type WindowMark struct {
	Version uint64 `json:"version"`
	Wall    int64  `json:"wall_unix_ns"`
}

// RetireResult summarizes one retire pass or explicit removal.
type RetireResult struct {
	// Removed is the number of edges deleted from the live graph.
	Removed int
	// Version is the graph version after the pass; it exceeds the prior
	// version iff Removed > 0.
	Version uint64
	// Mark is the window watermark after the pass.
	Mark WindowMark
	// Err reports a journal (durability) failure: the retirement is
	// committed in memory but its tombstone record did not reach the
	// write-ahead log. The store degrades exactly as for a failed append —
	// subsequent ingest is rejected until a covering snapshot heals the gap.
	Err error
}

// SetWindow installs the sliding-window policy; the zero policy, the
// default, means no window. The policy is fixed at birth: SetWindow is legal
// only on a fresh graph — version 0, nothing restored and nothing captured,
// so before the first Append, RestoreAt or Snapshot — and before the graph is
// shared; on any other graph it panics. A window ages edges by the stamp rows
// of the shard logs, which a graph without one drops at every capture. The
// policy only takes effect at Retire calls; installing it never retires
// anything by itself.
func (g *Graph) SetWindow(p WindowPolicy) {
	if g.version.Load() != 0 || g.snap.Load() != nil || g.base.Load() != nil {
		panic("stream: SetWindow on a graph that has appended, restored or captured; install the window on a fresh graph")
	}
	g.window = p
}

// Window returns the window policy (zero when windowing is off).
func (g *Graph) Window() WindowPolicy { return g.window }

// Retire applies the window policy as of now: it removes every live edge
// that violates a bound (so a re-observed edge re-ingests with fresh stamps), bumps the version once if
// anything was removed, journals a tombstone record at that version, and
// advances the window watermark. It is a no-op (and does not bump the
// version) when no policy is set or nothing is old enough.
//
// The whole pass holds the commit lock exclusively: ingest stalls for the
// O(live edges) scan, which is the price of snapshots staying exact — a
// capture can never observe half a retire. Passes are expected to run on a
// period (the daemon's retire ticker), not per request.
func (g *Graph) Retire(now time.Time) RetireResult {
	p := g.window
	if !p.Enabled() {
		return RetireResult{Version: g.version.Load(), Mark: g.mark()}
	}
	//ensemfdet:nondeterministic-ok retire-pass wall timing feeds retireNs metrics; the cut itself uses the caller-supplied now
	start := time.Now()
	g.commitMu.Lock()
	defer g.commitMu.Unlock()

	curV := g.version.Load()
	var verCut uint64
	// Age against the newest ingest, not the raw version counter: retire
	// bumps must not count as aging, or idle periodic passes would slide the
	// window over a quiescent graph until nothing was left.
	if base := g.lastIngest.Load(); p.MaxVersions > 0 && base > p.MaxVersions {
		verCut = base - p.MaxVersions
	}
	var wallCut int64
	if p.MaxAge > 0 {
		wallCut = now.UnixNano() - int64(p.MaxAge)
	}
	var partial map[uint64]struct{}
	if p.MaxEdges > 0 {
		countCut, part := g.countCutLocked(p.MaxEdges, verCut, wallCut)
		verCut = max(verCut, countCut)
		partial = part
	}
	if verCut == 0 && wallCut == 0 && partial == nil {
		return RetireResult{Version: curV, Mark: g.mark()}
	}

	removed := g.removeMatchingLocked(func(r stampRun, e bipartite.Edge) bool {
		if r.ver <= verCut || (wallCut > 0 && r.at <= wallCut) {
			return true
		}
		_, dead := partial[edgeKey(e)]
		return dead
	})
	if len(removed) == 0 {
		return RetireResult{Version: curV, Mark: g.mark()}
	}
	atomicMaxU64(&g.markVer, verCut)
	if wallCut > 0 {
		atomicMax(&g.markWall, wallCut)
	}
	res := g.commitRemovalLocked(removed)
	g.retiredTotal.Add(uint64(len(removed)))
	g.retirePasses.Add(1)
	//ensemfdet:nondeterministic-ok metrics-only duration
	g.retireNs.Add(int64(time.Since(start)))
	return res
}

// countCutLocked computes what the MaxEdges bound demands beyond the age
// cuts: whole versions are dropped oldest-first while doing so keeps at
// least maxEdges survivors, and the remaining excess is taken from the next
// (boundary) version as its canonically smallest (U, V) edges — so the pass
// lands exactly on the cap, and a version holding many edges (one huge
// batch, or a recovered snapshot whose whole history shares one restore
// stamp) is trimmed, never evicted wholesale. Returns the whole-version
// cutoff plus the boundary version's partial-eviction key set (nil when the
// cut aligns with a version boundary). The counts come from the run tables,
// O(runs); only the boundary version's edges are read. Requires the commit
// write lock.
func (g *Graph) countCutLocked(maxEdges int, verCut uint64, wallCut int64) (uint64, map[uint64]struct{}) {
	// Under the commit write lock numEdges is exact and bounds the age-cut
	// survivor count, so an in-cap graph — the steady state of a periodic
	// ticker — skips the scan entirely.
	if int(g.numEdges.Load()) <= maxEdges {
		return 0, nil
	}
	ageDead := func(r stampRun) bool {
		return r.ver <= verCut || (wallCut > 0 && r.at <= wallCut)
	}
	perVer := make(map[uint64]int)
	remaining := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		lo := 0
		for _, r := range sh.runs {
			if !ageDead(r) { // else the age cuts already remove the run
				perVer[r.ver] += r.end - lo
				remaining += r.end - lo
			}
			lo = r.end
		}
		sh.mu.Unlock()
	}
	if remaining <= maxEdges {
		return 0, nil
	}
	vers := make([]uint64, 0, len(perVer))
	for v := range perVer {
		vers = append(vers, v)
	}
	slices.Sort(vers)
	cut := uint64(0)
	boundary := uint64(0)
	for _, v := range vers {
		if remaining-perVer[v] >= maxEdges {
			remaining -= perVer[v]
			cut = v
			if remaining == maxEdges {
				return cut, nil
			}
			continue
		}
		boundary = v
		break
	}
	// Trim the boundary version: its canonically smallest excess edges go.
	excess := remaining - maxEdges
	cand := make([]bipartite.Edge, 0, perVer[boundary])
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		lo := 0
		for _, r := range sh.runs {
			if r.ver == boundary && !ageDead(r) {
				cand = append(cand, sh.entries[lo:r.end]...)
			}
			lo = r.end
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(cand, func(a, b bipartite.Edge) int {
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
	})
	partial := make(map[uint64]struct{}, excess)
	for _, e := range cand[:excess] {
		partial[edgeKey(e)] = struct{}{}
	}
	return cut, partial
}

// Remove deletes the given edges from the live graph (edges not present are
// ignored), bumping the version once and journaling a tombstone record iff
// anything was removed. It is the exact-deletion primitive: WAL tombstone
// replay reproduces retirements through it without re-evaluating any policy,
// and it doubles as an explicit unlearning API (a chargeback, a data-removal
// request). The window watermark does not move — Remove expresses "these
// edges", not "everything this old". A windowed graph scans its shard logs,
// which hold every live edge; one without a window looks each edge up in its
// shard's pending set and then in the base. The tombstone lists the removed
// edges in log or request order, which replay through Remove ignores.
func (g *Graph) Remove(edges []bipartite.Edge) RetireResult {
	if len(edges) == 0 {
		return RetireResult{Version: g.version.Load(), Mark: g.mark()}
	}
	g.commitMu.Lock()
	defer g.commitMu.Unlock()
	var removed []bipartite.Edge
	if g.window.Enabled() {
		keys := make(map[uint64]struct{}, len(edges))
		for _, e := range edges {
			keys[edgeKey(e)] = struct{}{}
		}
		removed = g.removeMatchingLocked(func(_ stampRun, e bipartite.Edge) bool {
			_, dead := keys[edgeKey(e)]
			return dead
		})
	} else {
		removed = g.removeUnloggedLocked(edges)
	}
	if len(removed) == 0 {
		return RetireResult{Version: g.version.Load(), Mark: g.mark()}
	}
	return g.commitRemovalLocked(removed)
}

// removeUnloggedLocked deletes edges from a graph without a window, in one
// pass: a pending edge leaves its shard's pending set, and one only the base
// holds joins the removed set and pendingDel, as a retire's deletes from
// below the mark do. Returns the removed edges; requires the commit write lock.
func (g *Graph) removeUnloggedLocked(edges []bipartite.Edge) []bipartite.Edge {
	var removed []bipartite.Edge
	base := g.base.Load()
	for _, e := range edges {
		si := int(e.U & g.mask)
		sh := &g.shards[si]
		k := edgeKey(e)
		sh.mu.Lock()
		hit := sh.pending.Delete(k)
		if !hit && base.has(si, e, k) && sh.removed.Add(k) {
			hit = true
			g.pendingDel = append(g.pendingDel, e)
		}
		if hit {
			sh.live--
			removed = append(removed, e)
		}
		sh.mu.Unlock()
	}
	return removed
}

// removeMatchingLocked deletes every log entry of a windowed graph that
// dead() selects, given the entry's edge and the run row stamping it: the
// entry leaves its shard log (survivors and their rows are rewritten into
// fresh backing arrays sized to them, preserving order, and rows left empty
// are dropped). An entry at or past the shard's baseline mark
// leaves the pending set; one below it, which the base and the previous
// snapshot contain, joins the removed set and pendingDel for the next delta
// build. Requires the commit write lock; returns the removed edges for
// journaling.
func (g *Graph) removeMatchingLocked(dead func(stampRun, bipartite.Edge) bool) []bipartite.Edge {
	var removed []bipartite.Edge
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		n, lo := 0, 0
		for _, r := range sh.runs {
			for _, e := range sh.entries[lo:r.end] {
				if dead(r, e) {
					n++
				}
			}
			lo = r.end
		}
		if n == 0 {
			sh.mu.Unlock()
			continue
		}
		fresh := make([]bipartite.Edge, 0, len(sh.entries)-n)
		runs := make([]stampRun, 0, len(sh.runs))
		belowMark := 0
		lo = 0
		for _, r := range sh.runs {
			kept := len(fresh)
			for idx := lo; idx < r.end; idx++ {
				e := sh.entries[idx]
				if !dead(r, e) {
					fresh = append(fresh, e)
					continue
				}
				removed = append(removed, e)
				if idx < sh.snapMark {
					belowMark++
					sh.removed.Add(edgeKey(e))
					g.pendingDel = append(g.pendingDel, e)
				} else {
					sh.pending.Delete(edgeKey(e))
				}
			}
			lo = r.end
			if len(fresh) > kept {
				r.end = len(fresh)
				runs = append(runs, r)
			}
		}
		sh.entries = fresh
		sh.runs = runs
		sh.snapMark -= belowMark
		sh.live -= n
		sh.mu.Unlock()
	}
	return removed
}

// commitRemovalLocked finishes a removal that deleted at least one edge:
// version bump, size counter, journal tombstone tee. Requires the commit
// write lock — the tee under it guarantees a snapshot cut at version V has
// been offered every tombstone ≤ V, the same covering property adding
// appends have.
func (g *Graph) commitRemovalLocked(removed []bipartite.Edge) RetireResult {
	g.numEdges.Add(-int64(len(removed)))
	newV := g.version.Add(1)
	g.histRecord(newV, removed, 0, len(removed))
	res := RetireResult{Removed: len(removed), Version: newV, Mark: g.mark()}
	if g.journal != nil {
		if err := g.journal.RetireEdges(newV, removed, res.Mark); err != nil {
			g.journalErrs.Add(1)
			res.Err = fmt.Errorf("stream: journal retire at version %d: %w", newV, err)
		}
	}
	return res
}

// AdvanceMarkTo raises the window watermark to at least mark (each field
// independently). It exists for WAL replay: tombstone records carry the
// watermark their retire pass reached, and replaying them restores expiry
// progress exactly — without it, a crash would roll the mark back to the
// last snapshot's value.
func (g *Graph) AdvanceMarkTo(mark WindowMark) {
	atomicMaxU64(&g.markVer, mark.Version)
	atomicMax(&g.markWall, mark.Wall)
}

func (g *Graph) mark() WindowMark {
	return WindowMark{Version: g.markVer.Load(), Wall: g.markWall.Load()}
}

// WindowStats is a point-in-time summary of the window machinery, surfaced
// by the daemon's /v1/stats window section and the ensemfdetd_window_*
// metrics.
type WindowStats struct {
	// Policy is the active window policy (zero if windowing is off).
	Policy WindowPolicy `json:"policy"`
	// RetiredEdges counts edges retired by window passes since construction
	// (explicit Removes are not window retirements and are excluded).
	RetiredEdges uint64 `json:"retired_edges"`
	// RetirePasses counts Retire calls that removed at least one edge.
	RetirePasses uint64 `json:"retire_passes"`
	// RetireDur is cumulative time spent inside removing retire passes.
	RetireDur time.Duration `json:"retire_ns"`
	// JournalErrors counts removals whose tombstone record failed to reach
	// the journal (the store degrades until a snapshot heals it).
	JournalErrors uint64 `json:"journal_errors"`
	// Mark is the current expiry watermark.
	Mark WindowMark `json:"watermark"`
	// LiveEdges is the current live-window size (same value as
	// Stats.NumEdges, repeated here so the window section is self-contained).
	LiveEdges int `json:"live_edges"`
}

// WindowStats returns current window counters. All reads are lock-free.
func (g *Graph) WindowStats() WindowStats {
	return WindowStats{
		Policy:        g.Window(),
		RetiredEdges:  g.retiredTotal.Load(),
		RetirePasses:  g.retirePasses.Load(),
		RetireDur:     time.Duration(g.retireNs.Load()),
		JournalErrors: g.journalErrs.Load(),
		Mark:          g.mark(),
		LiveEdges:     int(g.numEdges.Load()),
	}
}

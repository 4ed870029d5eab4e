package stream

import "ensemfdet/internal/bipartite"

// This file is the churn-tracking half of the dynamic graph: a bounded
// history of which nodes each committed version touched, queryable as a
// Delta between two snapshot versions. The incremental detection path
// (internal/core.RunIncremental, wired by internal/serve) classifies ensemble
// samples clean or dirty against exactly this touched-node set, so the
// contract is conservative-superset: a Delta may name a node whose adjacency
// did not actually change (e.g. the endpoint of a fully-duplicate edge in an
// adding batch), but it must never omit a node whose adjacency did. Missing
// history is reported, never fabricated: once a range has been evicted,
// restored, or force-rewound, Delta returns ok=false and callers fall back to
// a cold run.

// DefaultDeltaHistoryNodes bounds the touched-node history: once the summed
// endpoint count across retained records exceeds it, the oldest records are
// evicted and the history floor rises past them. At 8 bytes per endpoint the
// default retains ~8 MB of churn history — weeks of steady-state deltas, or
// a few huge backfill batches, whichever comes first.
const DefaultDeltaHistoryNodes = 1 << 20

// deltaRec is one committed change: the version it committed as and the
// endpoints whose adjacency that commit touched (or may have touched).
type deltaRec struct {
	ver       uint64
	users     []uint32
	merchants []uint32
	inserts   int
	deletes   int
}

// Delta is the churn between two snapshot versions: every user and merchant
// whose adjacency changed after the older one, up to and including the
// newer, with insert/delete edge counts for sizing the reuse-vs-rebuild
// decision. The node lists are a conservative superset (duplicates allowed,
// endpoints of deduplicated edges allowed) — sound for dirtiness
// classification, which only over-invalidates.
type Delta struct {
	// Users and Merchants are the touched parent node ids. Order is
	// unspecified and ids may repeat across (or within) records.
	Users     []uint32
	Merchants []uint32
	// Inserts and Deletes count edges actually added and removed in the
	// range (exact, unlike the node lists).
	Inserts int
	Deletes int
}

// EdgesChanged is the total edge churn in the range.
func (d Delta) EdgesChanged() int { return d.Inserts + d.Deletes }

// Delta reports the per-node churn between two snapshot versions, i.e. the
// union of touched endpoints over every commit with from < version ≤ to. The
// second result is false when the history cannot prove the range complete:
// from exceeds to, tracking is disabled, or part of the range was evicted
// (history bound), cleared (restore / force-rewind / replay hole). Callers
// must treat ok=false as "everything may have changed".
func (g *Graph) Delta(from, to uint64) (Delta, bool) {
	// Ranges past the current version refer to versions this graph has not
	// produced — after an epoch rewind, to a dead timeline's labels.
	if from > to || to > g.version.Load() {
		return Delta{}, false
	}
	g.histMu.Lock()
	defer g.histMu.Unlock()
	if g.histLimit <= 0 || from < g.histFloor {
		return Delta{}, false
	}
	var d Delta
	for i := g.histHead; i < len(g.hist); i++ {
		r := &g.hist[i]
		if r.ver <= from || r.ver > to {
			continue
		}
		d.Users = append(d.Users, r.users...)
		d.Merchants = append(d.Merchants, r.merchants...)
		d.Inserts += r.inserts
		d.Deletes += r.deletes
	}
	return d, true
}

// histRecord appends one commit's touched endpoints to the history, evicting
// from the front (and raising the floor) once the node budget is exceeded.
// Eviction advances histHead and zeroes the slot, releasing its endpoint
// slices; the live records are copied down only once the head passes half
// the slice, so a full history costs amortized O(1) record moves per commit
// rather than a memmove of every retained record.
// Called with commitMu held (read half for appends, write half for removals);
// histMu is a leaf lock below it. Concurrent adding batches may record out of
// version order — harmless, because Delta filters by version and the floor
// only ever rises past evicted records.
//
// The full pre-dedup batch is recorded for appends — a duplicate edge touches
// nothing, so this only over-marks, which the Delta contract allows — because
// the set of actually-added edges is scattered across per-shard logs by the
// time the batch commits, and re-collecting it would cost more than the
// occasional duplicate endpoint.
func (g *Graph) histRecord(ver uint64, edges []bipartite.Edge, inserts, deletes int) {
	g.histMu.Lock()
	defer g.histMu.Unlock()
	if g.histLimit <= 0 {
		return
	}
	users := make([]uint32, len(edges))
	merchants := make([]uint32, len(edges))
	for i, e := range edges {
		users[i] = e.U
		merchants[i] = e.V
	}
	g.hist = append(g.hist, deltaRec{ver: ver, users: users, merchants: merchants, inserts: inserts, deletes: deletes})
	g.histNodes += len(users) + len(merchants)
	for g.histNodes > g.histLimit && g.histHead < len(g.hist) {
		old := &g.hist[g.histHead]
		g.histNodes -= len(old.users) + len(old.merchants)
		if old.ver > g.histFloor {
			g.histFloor = old.ver
		}
		*old = deltaRec{}
		g.histHead++
	}
	if g.histHead > len(g.hist)/2 {
		n := copy(g.hist, g.hist[g.histHead:])
		clear(g.hist[n:]) // the moved records' old slots
		g.hist = g.hist[:n]
		g.histHead = 0
	}
}

// histReset discards all history and raises the floor to ver: the graph's
// contents can no longer be related to any earlier version (restore, epoch
// resync, replay hole).
func (g *Graph) histReset(ver uint64) {
	g.histMu.Lock()
	defer g.histMu.Unlock()
	g.histResetLocked(ver)
}

func (g *Graph) histResetLocked(ver uint64) {
	clear(g.hist)
	g.hist = g.hist[:0]
	g.histHead = 0
	g.histNodes = 0
	// Exactly ver, not max: an epoch rewind lowers the floor so the adopted
	// timeline's future commits are queryable from its snapshot version.
	g.histFloor = ver
}

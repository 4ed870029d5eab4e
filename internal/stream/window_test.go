package stream

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
)

// csrBytes serializes a graph through the binary codec — the strongest
// equality available: two graphs with identical csrBytes are byte-identical
// CSRs.
func csrBytes(t *testing.T, g *bipartite.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRetireByVersionAge(t *testing.T) {
	g := NewSharded(4)
	g.SetWindow(WindowPolicy{MaxVersions: 2})

	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 1}}) // version 1
	g.Append([]bipartite.Edge{{U: 2, V: 2}})               // version 2
	g.Append([]bipartite.Edge{{U: 3, V: 3}})               // version 3

	// Window of 2 versions at version 3: batches stamped ≤ 1 expire.
	res := g.Retire(time.Now())
	if res.Removed != 2 || res.Err != nil {
		t.Fatalf("retire: %+v, want Removed=2", res)
	}
	if res.Version != 4 {
		t.Fatalf("retire version = %d, want 4 (a retire is a version bump)", res.Version)
	}
	if res.Mark.Version != 1 {
		t.Fatalf("watermark = %d, want 1", res.Mark.Version)
	}
	if st := g.Stats(); st.NumEdges != 2 || st.NumUsers != 4 {
		t.Fatalf("post-retire stats: %+v (sides must not shrink)", st)
	}

	// A second pass with nothing old enough is a no-op: no bump.
	res = g.Retire(time.Now())
	if res.Removed != 0 || res.Version != 4 {
		t.Fatalf("idle retire: %+v", res)
	}

	// A retired edge left the dedup set: re-observing it re-ingests.
	re := g.Append([]bipartite.Edge{{U: 0, V: 0}})
	if re.Added != 1 || re.Duplicates != 0 || re.Version != 5 {
		t.Fatalf("re-ingest of retired edge: %+v, want Added=1 Version=5", re)
	}
	// A live edge is still a duplicate.
	if dup := g.Append([]bipartite.Edge{{U: 3, V: 3}}); dup.Added != 0 || dup.Duplicates != 1 {
		t.Fatalf("live edge re-append: %+v", dup)
	}
}

func TestRetireByWallAge(t *testing.T) {
	g := NewSharded(2)
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }
	g.SetWindow(WindowPolicy{MaxAge: 10 * time.Second})

	g.Append([]bipartite.Edge{{U: 0, V: 0}})
	now = now.Add(7 * time.Second)
	g.Append([]bipartite.Edge{{U: 1, V: 1}})

	// 8s later: the first edge is 15s old, the second 8s.
	now = now.Add(8 * time.Second)
	res := g.Retire(now)
	if res.Removed != 1 {
		t.Fatalf("retire: %+v, want Removed=1", res)
	}
	if g.Stats().NumEdges != 1 {
		t.Fatalf("live edges = %d, want 1", g.Stats().NumEdges)
	}
	if want := now.Add(-10 * time.Second).UnixNano(); res.Mark.Wall != want {
		t.Fatalf("wall watermark = %d, want %d", res.Mark.Wall, want)
	}
	snap, _ := g.Snapshot()
	if snap.NumEdges() != 1 || !snap.HasEdge(1, 1) {
		t.Fatalf("snapshot after wall retire: %v", snap)
	}
}

func TestRetireByMaxEdges(t *testing.T) {
	g := NewSharded(4)
	g.SetWindow(WindowPolicy{MaxEdges: 5})
	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 2}}) // v1: 3 edges
	g.Append([]bipartite.Edge{{U: 1, V: 0}, {U: 1, V: 1}})               // v2: 2 edges
	g.Append([]bipartite.Edge{{U: 2, V: 0}})                             // v3: 1 edge

	// 6 live > 5: the pass lands exactly on the cap by trimming the oldest
	// (boundary) version — its canonically smallest edge (0,0) goes, the
	// rest of v1 survives.
	res := g.Retire(time.Now())
	if res.Removed != 1 {
		t.Fatalf("retire: %+v, want exactly 1 edge trimmed to land on the cap", res)
	}
	// No version was evicted whole, so the watermark does not move.
	if res.Mark.Version != 0 {
		t.Fatalf("watermark = %d, want 0 (boundary version only trimmed)", res.Mark.Version)
	}
	snap, _ := g.Snapshot()
	if snap.HasEdge(0, 0) {
		t.Fatal("canonically smallest boundary edge survived")
	}
	for _, e := range []bipartite.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 0}, {U: 1, V: 1}, {U: 2, V: 0}} {
		if !snap.HasEdge(e.U, e.V) {
			t.Fatalf("survivor %v missing", e)
		}
	}
	if snap.NumEdges() != 5 {
		t.Fatalf("snapshot has %d edges, want exactly the cap (5)", snap.NumEdges())
	}

	// A second over-cap batch: now v1's remainder (2 edges, oldest) plus one
	// edge of v2 must go to land on 5 again — whole-version eviction first,
	// canonical trim at the new boundary. The watermark follows the last
	// fully evicted version.
	g.Append([]bipartite.Edge{{U: 3, V: 0}, {U: 3, V: 1}, {U: 3, V: 2}})
	res = g.Retire(time.Now())
	if res.Removed != 3 {
		t.Fatalf("second retire: %+v, want 3 removed", res)
	}
	if res.Mark.Version != 1 {
		t.Fatalf("watermark = %d, want 1 (v1 now fully gone)", res.Mark.Version)
	}
	snap, _ = g.Snapshot()
	if snap.NumEdges() != 5 || snap.HasEdge(0, 1) || snap.HasEdge(0, 2) || snap.HasEdge(1, 0) {
		t.Fatalf("second trim kept the wrong edges: %v", snap)
	}
}

// TestCountCapAfterRestoreTrimsInsteadOfEvicting is the regression for the
// recovered-lump bug: after RestoreAt the whole history shares one version
// stamp, and the first over-cap retire must trim it to the cap — not evict
// the entire detection window as "one old batch".
func TestCountCapAfterRestoreTrimsInsteadOfEvicting(t *testing.T) {
	src := NewSharded(4)
	src.Append(randomEdges(55, 300, 100, 100))
	snap, v := src.Snapshot()
	live := snap.NumEdges()

	g := NewSharded(4)
	g.SetWindow(WindowPolicy{MaxEdges: live}) // exactly at the cap
	if err := g.RestoreAt(snap, v, WindowMark{}, 0); err != nil {
		t.Fatal(err)
	}
	g.Append([]bipartite.Edge{{U: 200, V: 200}, {U: 201, V: 201}, {U: 202, V: 202}})

	res := g.Retire(time.Now())
	if res.Removed != 3 {
		t.Fatalf("retire removed %d, want 3 (trim the restored lump, not evict it)", res.Removed)
	}
	if st := g.Stats(); st.NumEdges != live {
		t.Fatalf("live = %d, want %d", st.NumEdges, live)
	}
	s2, _ := g.Snapshot()
	if !s2.HasEdge(202, 202) {
		t.Fatal("fresh edge should have survived the trim")
	}
}

func TestRemoveExactEdges(t *testing.T) {
	g := NewSharded(4)
	j := &recordingJournal{}
	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2}})
	g.SetJournal(j)

	res := g.Remove([]bipartite.Edge{{U: 1, V: 1}, {U: 9, V: 9}}) // second is absent
	if res.Removed != 1 || res.Version != 2 || res.Err != nil {
		t.Fatalf("remove: %+v, want Removed=1 Version=2", res)
	}
	if len(j.retireVersions) != 1 || j.retireVersions[0] != 2 ||
		len(j.retired[0]) != 1 || j.retired[0][0] != (bipartite.Edge{U: 1, V: 1}) {
		t.Fatalf("tombstone tee: versions=%v retired=%v", j.retireVersions, j.retired)
	}
	// Remove is not expiry: the watermark stays put.
	if res.Mark.Version != 0 {
		t.Fatalf("Remove moved the watermark: %+v", res.Mark)
	}
	// Removing nothing is a version no-op and journals nothing.
	res = g.Remove([]bipartite.Edge{{U: 9, V: 9}})
	if res.Removed != 0 || res.Version != 2 || len(j.retireVersions) != 1 {
		t.Fatalf("no-op remove: %+v (journal %v)", res, j.retireVersions)
	}
	snap, _ := g.Snapshot()
	if snap.NumEdges() != 2 || snap.HasEdge(1, 1) {
		t.Fatalf("removed edge survives in snapshot: %v", snap)
	}
}

func TestRetireJournalsTombstones(t *testing.T) {
	g := NewSharded(4)
	j := &recordingJournal{}
	g.SetJournal(j)
	g.SetWindow(WindowPolicy{MaxVersions: 1})

	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 1}}) // v1
	g.Append([]bipartite.Edge{{U: 2, V: 2}})               // v2
	res := g.Retire(time.Now())                            // v3, retires v1's edges
	if res.Removed != 2 || res.Err != nil {
		t.Fatalf("retire: %+v", res)
	}
	if len(j.retireVersions) != 1 || j.retireVersions[0] != 3 {
		t.Fatalf("tombstone versions = %v, want [3]", j.retireVersions)
	}
	got := map[bipartite.Edge]bool{}
	for _, e := range j.retired[0] {
		got[e] = true
	}
	if len(got) != 2 || !got[bipartite.Edge{U: 0, V: 0}] || !got[bipartite.Edge{U: 1, V: 1}] {
		t.Fatalf("tombstone edges = %v", j.retired[0])
	}

	// A journal failure surfaces in the result but the in-memory retire
	// stands (the store's gap machinery owns healing).
	j.err = errFailedJournal
	g.Append([]bipartite.Edge{{U: 3, V: 3}})
	g.Append([]bipartite.Edge{{U: 4, V: 4}})
	res = g.Retire(time.Now())
	if res.Err == nil || res.Removed == 0 {
		t.Fatalf("failed-journal retire: %+v", res)
	}
	if g.WindowStats().JournalErrors != 1 {
		t.Fatalf("journal error not counted: %+v", g.WindowStats())
	}
}

// windowModel is the reference implementation of windowed-stream semantics:
// a map of live edges stamped with ingest versions, plus monotone side
// maxima. The stream graph across any shard count must reproduce exactly the
// CSR this model's surviving set builds to.
type windowModel struct {
	ver       uint64 // total version (appends + removing retires)
	ingestVer uint64 // version of the last adding append
	live      map[bipartite.Edge]uint64
	nu, nm    int
}

func newWindowModel() *windowModel {
	return &windowModel{live: map[bipartite.Edge]uint64{}}
}

func (m *windowModel) append(batch []bipartite.Edge) {
	var fresh []bipartite.Edge
	for _, e := range batch {
		if _, ok := m.live[e]; !ok {
			fresh = append(fresh, e)
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.ver++
	m.ingestVer = m.ver
	for _, e := range fresh {
		m.live[e] = m.ver
		m.nu = max(m.nu, int(e.U)+1)
		m.nm = max(m.nm, int(e.V)+1)
	}
}

func (m *windowModel) retire(maxVersions uint64) {
	if m.ingestVer <= maxVersions {
		return
	}
	cut := m.ingestVer - maxVersions
	removed := false
	for e, v := range m.live {
		if v <= cut {
			delete(m.live, e)
			removed = true
		}
	}
	if removed {
		m.ver++
	}
}

func (m *windowModel) graph(t *testing.T) *bipartite.Graph {
	t.Helper()
	edges := make([]bipartite.Edge, 0, len(m.live))
	for e := range m.live {
		edges = append(edges, e)
	}
	g, err := bipartite.FromEdges(m.nu, m.nm, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWindowedSnapshotDeterminism is the tentpole's determinism pin: the
// same append/retire schedule, run against shard counts {1, 4, 16}, must
// produce byte-identical snapshot CSRs at every step — equal to the model's
// from-scratch build of the surviving set (so the delta chain with deletions
// composes exactly), with matching versions and watermarks, and the chain
// must actually exercise the deletion-aware delta path.
func TestWindowedSnapshotDeterminism(t *testing.T) {
	const maxVersions = 4
	edges := randomEdges(17, 6000, 400, 300)

	for _, shards := range []int{1, 4, 16} {
		g := NewSharded(shards)
		g.SetWindow(WindowPolicy{MaxVersions: maxVersions})
		m := newWindowModel()

		rng := rand.New(rand.NewSource(99))
		for off := 0; off < len(edges); off += 223 {
			end := min(off+223, len(edges))
			batch := edges[off:end]
			g.Append(batch)
			m.append(batch)
			if rng.Intn(3) == 0 {
				g.Retire(time.Now())
				m.retire(maxVersions)
			}
			if rng.Intn(2) == 0 {
				snap, v := g.Snapshot()
				if v != m.ver {
					t.Fatalf("shards=%d: version %d, model %d", shards, v, m.ver)
				}
				if !bytes.Equal(csrBytes(t, snap), csrBytes(t, m.graph(t))) {
					t.Fatalf("shards=%d: snapshot diverges from model at version %d", shards, v)
				}
			}
		}
		g.Retire(time.Now())
		m.retire(maxVersions)
		snap, v := g.Snapshot()
		if v != m.ver {
			t.Fatalf("shards=%d: final version %d, model %d", shards, v, m.ver)
		}
		if !bytes.Equal(csrBytes(t, snap), csrBytes(t, m.graph(t))) {
			t.Fatalf("shards=%d: final snapshot diverges from model", shards)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		bs := g.BuildStats()
		if bs.DeltaBuilds == 0 {
			t.Fatalf("shards=%d: windowed chain never took the delta path: %+v", shards, bs)
		}
		if g.WindowStats().RetiredEdges == 0 {
			t.Fatalf("shards=%d: window never retired anything", shards)
		}
		// The delta chain must also match a one-shot full rebuild of the
		// surviving set on a fresh graph (the cross-path half of the pin).
		fresh := NewSharded(shards)
		fresh.Append(snap.EdgeList())
		atomicMax(&fresh.numUsers, int64(snap.NumUsers()))
		atomicMax(&fresh.numMerchants, int64(snap.NumMerchants()))
		fs, _ := fresh.Snapshot()
		if !bytes.Equal(csrBytes(t, snap), csrBytes(t, fs)) {
			t.Fatalf("shards=%d: delta chain diverges from full rebuild", shards)
		}
	}
}

// TestWindowedCountDeterminism runs the MaxEdges policy across shard counts:
// whole-version retirement must select the same edges regardless of how the
// log is sharded.
func TestWindowedCountDeterminism(t *testing.T) {
	edges := randomEdges(23, 3000, 300, 200)
	var want []byte
	for _, shards := range []int{1, 4, 16} {
		g := NewSharded(shards)
		g.SetWindow(WindowPolicy{MaxEdges: 500})
		for off := 0; off < len(edges); off += 97 {
			end := min(off+97, len(edges))
			g.Append(edges[off:end])
			g.Retire(time.Now())
		}
		snap, _ := g.Snapshot()
		if st := g.Stats(); st.NumEdges > 500 {
			t.Fatalf("shards=%d: %d live edges exceed the 500 cap after retire", shards, st.NumEdges)
		}
		b := csrBytes(t, snap)
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("shards=%d: count-windowed snapshot differs from shards=1", shards)
		}
	}
}

func TestRestoreAtAdoptsMarkAndStamps(t *testing.T) {
	src := NewSharded(4)
	src.SetWindow(WindowPolicy{MaxVersions: 2})
	src.Append(randomEdges(31, 500, 100, 100))     // v1
	src.Append(randomEdges(32, 500, 100, 100))     // v2
	src.Append([]bipartite.Edge{{U: 200, V: 200}}) // v3
	src.Retire(time.Now())                         // v4
	snap, v, mark := src.SnapshotWithMark()
	if mark.Version == 0 {
		t.Fatalf("expected a non-zero watermark, got %+v", mark)
	}

	g := NewSharded(8)
	g.SetWindow(WindowPolicy{MaxVersions: 1})
	wall := time.Unix(5000, 0).UnixNano()
	if err := g.RestoreAt(snap, v, mark, wall); err != nil {
		t.Fatal(err)
	}
	// Every restored edge sits in its shard's log under one row stamped at
	// the snapshot's (version, wall).
	for i := range g.shards {
		sh := &g.shards[i]
		if want := []stampRun{{end: sh.live, ver: v, at: wall}}; sh.live > 0 && !slices.Equal(sh.runs, want) {
			t.Fatalf("shard %d: rows %+v, want %+v", i, sh.runs, want)
		}
	}
	if g.Version() != v {
		t.Fatalf("restored version = %d, want %d", g.Version(), v)
	}
	if got := g.WindowStats().Mark; got != mark {
		t.Fatalf("restored mark = %+v, want %+v", got, mark)
	}
	// The pre-published snapshot carries the restored mark.
	if _, _, m2 := g.SnapshotWithMark(); m2 != mark {
		t.Fatalf("snapshot mark = %+v, want %+v", m2, mark)
	}
	// Restored edges are stamped at the snapshot version: a version-age
	// window that still covers v retires nothing.
	if res := g.Retire(time.Now()); res.Removed != 0 {
		t.Fatalf("retire after restore removed %d edges (stamps should sit at the snapshot version)", res.Removed)
	}
	// Advance two versions: now everything restored is out of the window.
	g.Append([]bipartite.Edge{{U: 300, V: 300}})
	g.Append([]bipartite.Edge{{U: 301, V: 301}})
	if res := g.Retire(time.Now()); res.Removed != snap.NumEdges()+1 {
		t.Fatalf("retire removed %d, want the %d restored edges plus one", res.Removed, snap.NumEdges()+1)
	}
}

// TestSetWindowOnlyOnAFreshGraph pins that a window is chosen when the graph
// is made: once a graph has appended, restored a snapshot or captured one,
// SetWindow panics.
func TestSetWindowOnlyOnAFreshGraph(t *testing.T) {
	src := New()
	src.Append([]bipartite.Edge{{U: 1, V: 1}})
	snap, v := src.Snapshot()
	for _, tc := range []struct {
		after string
		use   func(g *Graph) error
	}{
		{"Append", func(g *Graph) error { g.Append([]bipartite.Edge{{U: 2, V: 2}}); return nil }},
		{"RestoreAt", func(g *Graph) error { return g.RestoreAt(snap, v, WindowMark{}, 0) }},
		{"Snapshot", func(g *Graph) error { g.Snapshot(); return nil }},
	} {
		g := New()
		if err := tc.use(g); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetWindow after %s did not panic", tc.after)
				}
			}()
			g.SetWindow(WindowPolicy{MaxEdges: 1})
		}()
	}
}

// TestConcurrentIngestRetireSnapshot hammers Append, Retire, Remove,
// Snapshot and Stats together under -race: snapshots must stay internally
// consistent and immutable, versions monotone, and the dedup set coherent
// (a live edge never double-ingests, a retired one always can).
func TestConcurrentIngestRetireSnapshot(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run("", func(t *testing.T) {
			g := NewSharded(shards)
			g.SetWindow(WindowPolicy{MaxVersions: 20, MaxEdges: 3000})
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 150; i++ {
						batch := make([]bipartite.Edge, 8)
						for j := range batch {
							batch[j] = bipartite.Edge{U: uint32(rng.Intn(400)), V: uint32(rng.Intn(400))}
						}
						if res := g.Append(batch); res.Added > 0 && res.Version == 0 {
							t.Error("append that added edges left version 0")
							return
						}
					}
				}(int64(w + 1))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 60; i++ {
					g.Retire(time.Now())
					g.Remove([]bipartite.Edge{{U: uint32(i % 400), V: uint32(i % 400)}})
				}
			}()
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastV uint64
					var pinned *bipartite.Graph
					var pinnedBytes []byte
					for i := 0; i < 80; i++ {
						s, v := g.Snapshot()
						if v < lastV {
							t.Errorf("snapshot version went backwards: %d after %d", v, lastV)
							return
						}
						lastV = v
						if err := s.Validate(); err != nil {
							t.Errorf("inconsistent snapshot: %v", err)
							return
						}
						if pinned == nil {
							pinned, pinnedBytes = s, csrBytes(t, s)
						}
					}
					if !bytes.Equal(pinnedBytes, csrBytes(t, pinned)) {
						t.Error("pinned snapshot mutated by later appends/retires")
					}
				}()
			}
			wg.Wait()

			st := g.Stats()
			sizes := g.ShardSizes()
			sum := 0
			for _, sz := range sizes {
				sum += sz.NumEdges
			}
			if sum != st.NumEdges {
				t.Errorf("shard sizes sum to %d, stats say %d", sum, st.NumEdges)
			}
			s, _ := g.Snapshot()
			if s.NumEdges() != st.NumEdges {
				t.Errorf("final snapshot has %d edges, stats say %d", s.NumEdges(), st.NumEdges)
			}
			// Dedup must agree with the final snapshot after all the
			// capture-to-publish windows above: everything in it is a
			// duplicate, everything else on the id grid is fresh.
			if res := g.Append(s.EdgeList()); res.Added != 0 {
				t.Errorf("re-appending the final snapshot added %d edges", res.Added)
			}
			var lacking []bipartite.Edge
			for u := uint32(0); u < 400; u++ {
				for v := uint32(0); v < 400; v++ {
					if !s.HasEdge(u, v) {
						lacking = append(lacking, bipartite.Edge{U: u, V: v})
					}
				}
			}
			if res := g.Append(lacking); res.Added != len(lacking) {
				t.Errorf("appending the %d grid edges the snapshot lacks added %d", len(lacking), res.Added)
			}
		})
	}
}

package stream

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
)

func TestAppendDedupAndVersion(t *testing.T) {
	g := New()
	if v := g.Version(); v != 0 {
		t.Fatalf("empty graph version = %d, want 0", v)
	}

	res := g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 0, V: 0}})
	if res.Added != 2 || res.Duplicates != 1 || res.Version != 1 {
		t.Fatalf("first batch: %+v, want Added=2 Duplicates=1 Version=1", res)
	}

	// Re-ingesting the same batch is a no-op and must not bump the version.
	res = g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 0, V: 1}})
	if res.Added != 0 || res.Duplicates != 2 || res.Version != 1 {
		t.Fatalf("idempotent retry: %+v, want Added=0 Duplicates=2 Version=1", res)
	}

	res = g.Append([]bipartite.Edge{{U: 5, V: 7}})
	if res.Added != 1 || res.Version != 2 {
		t.Fatalf("new edge: %+v, want Added=1 Version=2", res)
	}
	st := g.Stats()
	if st.NumUsers != 6 || st.NumMerchants != 8 || st.NumEdges != 3 || st.Version != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotCachingAndImmutability(t *testing.T) {
	g := New()
	g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 0}, {U: 1, V: 1}})

	s1, v1 := g.Snapshot()
	if v1 != 1 {
		t.Fatalf("snapshot version = %d, want 1", v1)
	}
	if s1.NumEdges() != 3 || s1.NumUsers() != 2 || s1.NumMerchants() != 2 {
		t.Fatalf("snapshot shape: %v", s1)
	}
	if err := s1.Validate(); err != nil {
		t.Fatalf("snapshot invalid: %v", err)
	}

	// Unchanged version → cached pointer, no rebuild.
	s1b, v1b := g.Snapshot()
	if s1b != s1 || v1b != v1 {
		t.Fatal("snapshot at unchanged version was rebuilt")
	}

	// Appending must not mutate the earlier snapshot.
	g.Append([]bipartite.Edge{{U: 9, V: 9}})
	if s1.NumEdges() != 3 || s1.NumUsers() != 2 {
		t.Fatal("append mutated an existing snapshot")
	}
	s2, v2 := g.Snapshot()
	if v2 != 2 || s2 == s1 {
		t.Fatalf("post-append snapshot: version %d, same pointer %v", v2, s2 == s1)
	}
	if s2.NumUsers() != 10 || s2.NumEdges() != 4 {
		t.Fatalf("post-append snapshot shape: %v", s2)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	g := New()
	s, v := g.Snapshot()
	if v != 0 || s.NumEdges() != 0 || s.NumUsers() != 0 {
		t.Fatalf("empty snapshot: v=%d %v", v, s)
	}
}

func TestShardCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {16, 16}, {1000, MaxShards},
	} {
		if got := NewSharded(tc.in).NumShards(); got != tc.want {
			t.Errorf("NewSharded(%d).NumShards() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := New().NumShards(); got != DefaultShards() {
		t.Errorf("New().NumShards() = %d, want DefaultShards() = %d", got, DefaultShards())
	}
}

// randomEdges draws n edges with duplicates over a node space shaped like
// live traffic (skewless uniform is fine for structural determinism checks).
func randomEdges(seed int64, n, users, merchants int) []bipartite.Edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]bipartite.Edge, n)
	for i := range out {
		out[i] = bipartite.Edge{U: uint32(rng.Intn(users)), V: uint32(rng.Intn(merchants))}
	}
	return out
}

// graphsEqual compares two immutable graphs by shape and full edge list; the
// CSR layout is a canonical function of (sizes, edge set) — pinned by the
// bipartite package's own extend tests — so this equality is byte-identity.
func graphsEqual(a, b *bipartite.Graph) bool {
	return a.NumUsers() == b.NumUsers() &&
		a.NumMerchants() == b.NumMerchants() &&
		reflect.DeepEqual(a.EdgeList(), b.EdgeList())
}

// TestSnapshotDeterministicAcrossShardCounts is the tentpole's core pin: the
// same edge stream, ingested into graphs with shard counts {1, 4, 16}, in one
// giant batch (full-build path) or in many small batches with interleaved
// snapshots (delta-build path), must yield identical snapshots.
func TestSnapshotDeterministicAcrossShardCounts(t *testing.T) {
	edges := randomEdges(11, 4000, 300, 250)
	ref, err := bipartite.FromEdges(300, 250, edges)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 16} {
		// One batch: full rebuild.
		full := NewSharded(shards)
		full.Append(edges)
		fs, _ := full.Snapshot()
		if err := fs.Validate(); err != nil {
			t.Fatalf("shards=%d full: invalid: %v", shards, err)
		}
		if !graphsEqual(fs, ref) {
			t.Fatalf("shards=%d: full-build snapshot diverges from reference", shards)
		}

		// Many small batches with a snapshot after each: exercises the
		// incremental chain. Snapshot equality at the end proves the delta
		// merges composed to the same graph.
		inc := NewSharded(shards)
		for off := 0; off < len(edges); off += 97 {
			end := min(off+97, len(edges))
			inc.Append(edges[off:end])
			if s, _ := inc.Snapshot(); s.NumEdges() > ref.NumEdges() {
				t.Fatalf("shards=%d: intermediate snapshot has %d edges, reference max %d",
					shards, s.NumEdges(), ref.NumEdges())
			}
		}
		is, _ := inc.Snapshot()
		if err := is.Validate(); err != nil {
			t.Fatalf("shards=%d incremental: invalid: %v", shards, err)
		}
		if !graphsEqual(is, ref) {
			t.Fatalf("shards=%d: incremental snapshot diverges from reference", shards)
		}
		if bs := inc.BuildStats(); bs.DeltaBuilds == 0 {
			t.Fatalf("shards=%d: incremental ingest never took the delta path: %+v", shards, bs)
		}
	}
}

// TestBuildsExtendAfterFirstCapture checks that the first snapshot is the
// only full build: later ones merge into the previous CSR whatever their
// churn, up to replacing every edge, and equal a build from scratch.
func TestBuildsExtendAfterFirstCapture(t *testing.T) {
	g := NewSharded(4)
	first := randomEdges(5, 8000, 500, 500)
	g.Append(first)
	g.Snapshot()
	if bs := g.BuildStats(); bs.FullBuilds != 1 || bs.DeltaBuilds != 0 {
		t.Fatalf("first snapshot: %+v, want exactly one full build", bs)
	}

	g.Append([]bipartite.Edge{{U: 600, V: 600}})
	g.Snapshot()
	if bs := g.BuildStats(); bs.FullBuilds != 1 || bs.DeltaBuilds != 1 {
		t.Fatalf("small delta: %+v, want one delta build", bs)
	}

	// More churn than the graph has edges: every earlier edge goes, 8000
	// fresh ones come in.
	g.Remove(append(first, bipartite.Edge{U: 600, V: 600}))
	fresh := make([]bipartite.Edge, 0, 8000)
	for i := 0; i < 8000; i++ {
		fresh = append(fresh, bipartite.Edge{U: uint32(1000 + i), V: uint32(i % 700)})
	}
	g.Append(fresh)
	s, _ := g.Snapshot()
	if bs := g.BuildStats(); bs.FullBuilds != 1 || bs.DeltaBuilds != 2 {
		t.Fatalf("large delta: %+v, want a second delta build", bs)
	}
	want, err := bipartite.FromEdges(s.NumUsers(), s.NumMerchants(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csrBytes(t, s), csrBytes(t, want)) {
		t.Fatal("merged snapshot differs from a build of the same edges")
	}
}

// TestShardSizesSumToLiveEdges checks that the per-shard sizes /v1/stats
// reports add up to the live edge count through every kind of change, on a
// graph without a window, whose captures drop the shard logs and whose
// removes below the mark take edges only the captured base holds, and on a
// windowed one, whose removes below the mark rewrite the logs.
func TestShardSizesSumToLiveEdges(t *testing.T) {
	for _, w := range []WindowPolicy{{}, {MaxEdges: 300}} {
		for _, shards := range []int{1, 2, 8} {
			g := NewSharded(shards)
			g.SetWindow(w)
			check := func(op string) {
				t.Helper()
				sum := 0
				for _, sz := range g.ShardSizes() {
					sum += sz.NumEdges
				}
				if n := g.Stats().NumEdges; sum != n || n == 0 {
					t.Fatalf("window %+v shards=%d after %s: shard sizes sum to %d, stats %d", w, shards, op, sum, n)
				}
			}
			first := randomEdges(1, 500, 60, 50)
			g.Append(first)
			check("append")
			g.Snapshot()
			check("capture")
			more := randomEdges(2, 200, 60, 50)
			g.Append(more)
			check("append after a capture")
			g.Remove(more[:20])
			check("remove above the mark")
			g.Remove(first[:40])
			check("remove below the mark")
			g.Snapshot()
			check("second capture")
			g.Append(randomEdges(3, 100, 60, 50))
			if res := g.Retire(time.Now()); (res.Removed > 0) != w.Enabled() {
				t.Fatalf("window %+v shards=%d: the retire removed %d", w, shards, res.Removed)
			}
			check("retire")

			snap, v, mark := g.SnapshotWithMark()
			g = NewSharded(shards)
			g.SetWindow(w)
			if err := g.RestoreAt(snap, v, mark, 0); err != nil {
				t.Fatal(err)
			}
			check("restore")
			g.Remove(snap.EdgeList()[:30])
			check("remove from the restored base")
		}
	}
}

// TestInterimBaseMatchesBuild stops each snapshot between its capture and
// its publish, where appends dedup against the interim base, and checks
// that the interim base holds exactly the edges of the CSR the build
// produces, on every id of the grid, over delta and full builds with
// removals and re-adds between captures.
func TestInterimBaseMatchesBuild(t *testing.T) {
	const users, merchants = 60, 50
	for _, shards := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(shards)))
		g := NewSharded(shards)
		var removed []bipartite.Edge
		for round := 0; round < 12; round++ {
			batch := randomEdges(int64(round), 20+rng.Intn(400), users, merchants)
			g.Append(append(batch, removed...))
			removed = nil
			for _, e := range batch {
				if rng.Intn(4) == 0 {
					removed = append(removed, e)
				}
			}
			g.Remove(removed)

			g.buildMu.Lock()
			prev := g.snap.Load()
			g.commitMu.Lock()
			c := g.captureLocked(prev)
			g.commitMu.Unlock()
			interim := g.base.Load()
			built := g.buildLocked(prev, c)
			g.publish(built, c)
			g.buildMu.Unlock()
			for u := uint32(0); u < users; u++ {
				for v := uint32(0); v < merchants; v++ {
					e := bipartite.Edge{U: u, V: v}
					if got, want := interim.has(int(u&g.mask), e, edgeKey(e)), built.HasEdge(u, v); got != want {
						t.Fatalf("shards=%d round %d: interim base has %v = %v, build %v", shards, round, e, got, want)
					}
				}
			}
		}
		if bs := g.BuildStats(); bs.DeltaBuilds == 0 || bs.FullBuilds == 0 {
			t.Fatalf("shards=%d: %+v, want both build paths", shards, bs)
		}
	}
}

// TestConcurrentIngestAndSnapshot hammers Append, Snapshot, and Stats from
// many goroutines across shard counts; run with -race. Every snapshot must
// be internally consistent, never shrink, and observed versions must be
// monotone; snapshots taken early must be untouched by later appends.
func TestConcurrentIngestAndSnapshot(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run("", func(t *testing.T) {
			g := NewSharded(shards)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 200; i++ {
						batch := make([]bipartite.Edge, 8)
						for j := range batch {
							batch[j] = bipartite.Edge{U: uint32(rng.Intn(500)), V: uint32(rng.Intn(500))}
						}
						res := g.Append(batch)
						if res.Added > 0 && res.Version == 0 {
							t.Error("append that added edges left version 0")
							return
						}
					}
				}(int64(w + 1))
			}
			// Snapshotters: validate, check monotone versions and that an
			// earlier snapshot's contents survive later appends verbatim.
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastV uint64
					var pinned *bipartite.Graph
					var pinnedEdges int
					for i := 0; i < 100; i++ {
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
							pinned, pinnedEdges = s, s.NumEdges()
						}
					}
					if pinned.NumEdges() != pinnedEdges {
						t.Errorf("pinned snapshot grew from %d to %d edges", pinnedEdges, pinned.NumEdges())
					}
					if err := pinned.Validate(); err != nil {
						t.Errorf("pinned snapshot corrupted: %v", err)
					}
				}()
			}
			wg.Wait()

			st := g.Stats()
			s, v := g.Snapshot()
			if v != st.Version && g.Version() == st.Version {
				t.Errorf("final snapshot version %d, stats version %d", v, st.Version)
			}
			if s.NumEdges() != st.NumEdges {
				t.Errorf("final snapshot has %d edges, stats say %d", s.NumEdges(), st.NumEdges)
			}
			sizes := g.ShardSizes()
			sum := 0
			for _, sz := range sizes {
				sum += sz.NumEdges
			}
			if len(sizes) != shards || sum != st.NumEdges {
				t.Errorf("shard sizes %v do not sum to %d", sizes, st.NumEdges)
			}
		})
	}
}

// recordingJournal captures journaled batches and tombstones; err, when set,
// is returned from every call.
type recordingJournal struct {
	mu             sync.Mutex
	versions       []uint64
	batches        [][]bipartite.Edge
	retireVersions []uint64
	retired        [][]bipartite.Edge
	err            error
}

func (j *recordingJournal) AppendEdges(version uint64, edges []bipartite.Edge) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.versions = append(j.versions, version)
	j.batches = append(j.batches, append([]bipartite.Edge(nil), edges...))
	return nil
}

func (j *recordingJournal) RetireEdges(version uint64, edges []bipartite.Edge, _ WindowMark) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.retireVersions = append(j.retireVersions, version)
	j.retired = append(j.retired, append([]bipartite.Edge(nil), edges...))
	return nil
}

func TestJournalTeesAddingBatches(t *testing.T) {
	g := NewSharded(4)
	j := &recordingJournal{}
	g.SetJournal(j)

	res := g.Append([]bipartite.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 0, V: 0}})
	if res.Err != nil || res.Version != 1 {
		t.Fatalf("first append: %+v", res)
	}
	// An all-duplicate batch must not be journaled: it did not change the
	// graph, so replaying the log without it reproduces the same state.
	res = g.Append([]bipartite.Edge{{U: 0, V: 0}})
	if res.Added != 0 || res.Err != nil {
		t.Fatalf("dup append: %+v", res)
	}
	g.Append([]bipartite.Edge{{U: 2, V: 2}})

	if len(j.versions) != 2 || j.versions[0] != 1 || j.versions[1] != 2 {
		t.Fatalf("journaled versions = %v, want [1 2]", j.versions)
	}
	// The full pre-dedup batch is journaled (replay re-deduplicates).
	if len(j.batches[0]) != 3 {
		t.Fatalf("journaled batch 1 has %d edges, want the full batch of 3", len(j.batches[0]))
	}
}

func TestJournalErrorSurfacesInResult(t *testing.T) {
	g := New()
	j := &recordingJournal{err: errFailedJournal}
	g.SetJournal(j)
	res := g.Append([]bipartite.Edge{{U: 1, V: 1}})
	if res.Err == nil {
		t.Fatal("journal failure not surfaced in AppendResult.Err")
	}
	// The in-memory commit still happened (at-least-once semantics): a retry
	// after the journal recovers deduplicates.
	if res.Added != 1 || g.Stats().NumEdges != 1 {
		t.Fatalf("failed-journal append result: %+v", res)
	}
}

var errFailedJournal = errBoom{}

type errBoom struct{}

func (errBoom) Error() string { return "boom" }

func TestRestoreAdoptsSnapshotAndVersion(t *testing.T) {
	src := NewSharded(4)
	src.Append(randomEdges(21, 1000, 200, 200))
	src.Append(randomEdges(22, 1000, 200, 200))
	snap, v := src.Snapshot()

	for _, shards := range []int{1, 8} {
		g := NewSharded(shards)
		if err := g.RestoreAt(snap, v, WindowMark{}, 0); err != nil {
			t.Fatal(err)
		}
		if g.Version() != v {
			t.Fatalf("restored version = %d, want %d", g.Version(), v)
		}
		st := g.Stats()
		if st.NumEdges != snap.NumEdges() || st.NumUsers != snap.NumUsers() || st.NumMerchants != snap.NumMerchants() {
			t.Fatalf("restored stats %+v, want snapshot shape %v", st, snap)
		}
		// The recovered CSR is pre-published: the first Snapshot returns it
		// without any rebuild.
		got, gv := g.Snapshot()
		if got != snap || gv != v {
			t.Fatal("first post-restore Snapshot rebuilt instead of reusing the recovered CSR")
		}
		if bs := g.BuildStats(); bs.FullBuilds != 0 || bs.DeltaBuilds != 0 {
			t.Fatalf("restore triggered builds: %+v", bs)
		}
		// Appends continue from the restored state via the delta path and
		// match the source graph exactly.
		extra := randomEdges(23, 500, 250, 250)
		g.Append(extra)
		src2 := NewSharded(4)
		src2.Append(randomEdges(21, 1000, 200, 200))
		src2.Append(randomEdges(22, 1000, 200, 200))
		src2.Append(extra)
		want, _ := src2.Snapshot()
		have, _ := g.Snapshot()
		if !graphsEqual(have, want) {
			t.Fatal("post-restore append diverges from an uninterrupted graph")
		}
	}

	// RestoreAt refuses a non-empty graph.
	g := New()
	g.Append([]bipartite.Edge{{U: 0, V: 0}})
	if err := g.RestoreAt(snap, v, WindowMark{}, 0); err == nil {
		t.Fatal("RestoreAt on a non-empty graph must fail")
	}
}

func TestRestoreNilSnapshot(t *testing.T) {
	g := New()
	if err := g.RestoreAt(nil, 0, WindowMark{}, 0); err != nil {
		t.Fatal(err)
	}
	if g.Version() != 0 || g.Stats().NumEdges != 0 {
		t.Fatalf("nil restore changed the graph: %+v", g.Stats())
	}
}

// BenchmarkIngestParallel measures multi-producer append throughput: 8
// goroutines append an identical sequence of 256-edge batches into a
// 1-shard graph, whose one lock every producer takes, and into an 8-shard
// graph. The shards=8 over shards=1 edges/s ratio is what sharding buys on
// the host's cores. The sequence cycles a 2^22-pair space, so memory stays
// bounded at any b.N.
func BenchmarkIngestParallel(b *testing.B) {
	const (
		workers = 8
		batch   = 256
	)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			g := NewSharded(shards)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]bipartite.Edge, batch)
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						// The same pairs whatever the scheduling, so both
						// shard counts ingest the same workload.
						for j := range buf {
							h := ((uint64(i)*batch+uint64(j))&(1<<22-1) + 1) * 0x9E3779B97F4A7C15
							buf[j] = bipartite.Edge{U: uint32(h>>40) & (1<<20 - 1), V: uint32(h>>20) & (1<<18 - 1)}
						}
						g.Append(buf)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

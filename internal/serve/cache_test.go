package serve

import (
	"context"
	"errors"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// TestCacheEvictsLeastRecentlyUsedConfig tells LRU from FIFO: A, B, A, C
// through a two-config cache must evict B, the least recently used, and keep
// A, the first inserted.
func TestCacheEvictsLeastRecentlyUsedConfig(t *testing.T) {
	e := NewEngine(seedStream(t), Options{MaxCacheEntries: 2})
	ctx := context.Background()
	cfg := func(seed int64) Params { return Params{NumSamples: 4, SampleRatio: 0.2, Seed: seed} }
	a, b, c := cfg(1), cfg(2), cfg(3)
	for i, p := range []Params{a, b, a, c} {
		vs, err := e.Votes(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if want := i == 2; vs.Cached != want {
			t.Fatalf("request %d (seed %d): cached=%v, want %v", i, p.Seed, vs.Cached, want)
		}
	}
	if vs, err := e.Votes(ctx, a); err != nil || !vs.Cached {
		t.Errorf("A after C: cached=%v err=%v, want a hit (A was used after B)", vs.Cached, err)
	}
	if vs, err := e.Votes(ctx, b); err != nil || vs.Cached {
		t.Errorf("B after C: cached=%v err=%v, want a miss (B was least recently used)", vs.Cached, err)
	}
	if st := e.Stats(); st.CacheEntries != 2 || st.EnsembleRuns != 4 {
		t.Errorf("entries=%d runs=%d, want 2 and 4", st.CacheEntries, st.EnsembleRuns)
	}
}

// TestOneEntryPerConfigForNonResumableRuns drives RES, which cannot resume
// across an insert, through five versions: every run is cold, and each
// replaces the config's entry just as a resumable run does.
func TestOneEntryPerConfigForNonResumableRuns(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	p := Params{Sampler: "RES", NumSamples: 12, SampleRatio: 0.3, Seed: 7}
	for i := 0; i < 5; i++ {
		if i > 0 {
			g.Append([]bipartite.Edge{{U: uint32(5300 + i), V: 3}})
		}
		d, err := e.Detect(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		if d.Incremental || d.Cached {
			t.Fatalf("version %d: incremental=%v cached=%v, want a cold run", d.GraphVersion, d.Incremental, d.Cached)
		}
	}
	st := e.Stats()
	if st.CacheEntries != 1 || st.EnsembleRuns != 5 || st.Detect.IncrementalFallbacks != 4 {
		t.Errorf("entries=%d runs=%d fallbacks=%d, want 1, 5 and 4",
			st.CacheEntries, st.EnsembleRuns, st.Detect.IncrementalFallbacks)
	}
}

// scriptedSource hands out pre-taken snapshots of a stream graph in a fixed
// order, so a request can see an older version after a newer one.
type scriptedSource struct {
	*stream.Graph
	snaps []*bipartite.Graph
	vers  []uint64
}

func (s *scriptedSource) Snapshot() (*bipartite.Graph, uint64) {
	g, v := s.snaps[0], s.vers[0]
	s.snaps, s.vers = s.snaps[1:], s.vers[1:]
	return g, v
}

// TestStaleRunDoesNotReplaceNewerEntry serves version 2, then a request that
// took its snapshot at version 1. That run computes correct votes for
// version 1, but leaves version 2 cached as the config's entry and base.
func TestStaleRunDoesNotReplaceNewerEntry(t *testing.T) {
	g := seedStream(t)
	s1, v1 := g.Snapshot()
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	s2, v2 := g.Snapshot()
	src := &scriptedSource{Graph: g,
		snaps: []*bipartite.Graph{s2, s1, s2}, vers: []uint64{v2, v1, v2}}
	e := NewEngine(src, Options{})
	ctx := context.Background()
	p := onsParams()

	if _, err := e.Votes(ctx, p); err != nil {
		t.Fatal(err)
	}
	old, err := e.Votes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if old.GraphVersion != v1 || old.Cached || old.Incremental {
		t.Errorf("stale request: version=%d cached=%v incremental=%v, want %d, a cold miss",
			old.GraphVersion, old.Cached, old.Incremental, v1)
	}
	ref := NewEngine(&scriptedSource{Graph: g, snaps: []*bipartite.Graph{s1}, vers: []uint64{v1}}, Options{})
	want, err := ref.Votes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalVotes(old.Votes, want.Votes) {
		t.Error("stale run's votes differ from a cold run at its version")
	}

	e.mu.Lock()
	cur := e.done[p.Fingerprint()]
	if cur == nil || cur.version != v2 || cur.out == nil {
		t.Errorf("cached entry %+v, want version %d with its base output", cur, v2)
	}
	e.mu.Unlock()
	again, err := e.Votes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.GraphVersion != v2 {
		t.Errorf("repeat at version %d: cached=%v version=%d", v2, again.Cached, again.GraphVersion)
	}
	if st := e.Stats(); st.CacheEntries != 1 || st.EnsembleRuns != 2 {
		t.Errorf("entries=%d runs=%d, want 1 and 2", st.CacheEntries, st.EnsembleRuns)
	}
}

// gatedDeltas parks every Delta call until release closes, announcing each
// on entered: an incremental run stays in flight for as long as a test
// needs.
type gatedDeltas struct {
	*stream.Graph
	entered, release chan struct{}
}

func (g *gatedDeltas) Delta(from, to uint64) (stream.Delta, bool) {
	g.entered <- struct{}{}
	<-g.release
	return g.Graph.Delta(from, to)
}

// TestInFlightRunSurvivesEviction parks config A's incremental run in flight
// while config B publishes into a one-config cache. B evicts A's cached base,
// but not the in-flight run: a repeat request for it coalesces, and the run
// still resumes from the base it took.
func TestInFlightRunSurvivesEviction(t *testing.T) {
	g := seedStream(t)
	src := &gatedDeltas{Graph: g, entered: make(chan struct{}), release: make(chan struct{})}
	e := NewEngine(src, Options{MaxCacheEntries: 1})
	ctx := context.Background()
	a, b := onsParams(), testParams()
	if _, err := e.Votes(ctx, a); err != nil {
		t.Fatal(err)
	}
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})

	type result struct {
		vs  VoteSet
		err error
	}
	first := make(chan result, 1)
	go func() {
		vs, err := e.Votes(ctx, a)
		first <- result{vs, err}
	}()
	<-src.entered
	if _, err := e.Votes(ctx, b); err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	if before.CacheEntries != 2 {
		t.Errorf("entries=%d, want B cached plus A in flight", before.CacheEntries)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := e.Votes(canceled, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("repeat request: err=%v, want context.Canceled while the run is parked", err)
	}
	after := e.Stats()
	if after.CacheMisses != before.CacheMisses || after.CacheHits != before.CacheHits+1 {
		t.Errorf("repeat request did not coalesce: misses %d->%d hits %d->%d",
			before.CacheMisses, after.CacheMisses, before.CacheHits, after.CacheHits)
	}
	close(src.release)
	r := <-first
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !r.vs.Incremental {
		t.Error("the in-flight run lost its base to eviction")
	}
	if st := e.Stats(); st.EnsembleRuns != 3 || st.CacheEntries != 1 {
		t.Errorf("runs=%d entries=%d, want 3 and 1", st.EnsembleRuns, st.CacheEntries)
	}
}

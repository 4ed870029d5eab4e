package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// seedStream plants a dense fraud block in random background traffic,
// mirroring the facade tests, and returns the ingested dynamic graph.
func seedStream(t *testing.T) *stream.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := stream.New()
	batch := make([]bipartite.Edge, 0, 512)
	for i := 0; i < 2000; i++ {
		batch = append(batch, bipartite.Edge{U: uint32(rng.Intn(400)), V: uint32(rng.Intn(400))})
	}
	for u := 0; u < 25; u++ {
		for v := 0; v < 12; v++ {
			batch = append(batch, bipartite.Edge{U: uint32(400 + u), V: uint32(400 + v)})
		}
	}
	g.Append(batch)
	return g
}

func testParams() Params {
	return Params{NumSamples: 12, SampleRatio: 0.3, Seed: 7}
}

func TestDetectServedFromCacheAcrossThresholds(t *testing.T) {
	e := NewEngine(seedStream(t), Options{})
	ctx := context.Background()

	d1, err := e.Detect(ctx, testParams(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Cached {
		t.Error("first detect reported cached")
	}
	if len(d1.Users) == 0 {
		t.Fatal("planted block not detected")
	}

	// Sweeping T and ranking reuse the same votes: still exactly one run.
	for _, T := range []int{3, 6, 12} {
		d, err := e.Detect(ctx, testParams(), T)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Cached {
			t.Errorf("T=%d not served from cache", T)
		}
	}
	if _, err := e.Rank(ctx, testParams(), 1, 10); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EnsembleRuns != 1 || st.CacheMisses != 1 || st.CacheHits != 4 {
		t.Errorf("stats after sweep: %+v, want runs=1 misses=1 hits=4", st)
	}
}

func TestDefaultThresholdIsHalfN(t *testing.T) {
	e := NewEngine(seedStream(t), Options{})
	d, err := e.Detect(context.Background(), testParams(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Threshold != 6 {
		t.Errorf("default threshold = %d, want N/2 = 6", d.Threshold)
	}
	// An explicit T=0 must not fall back to N/2; it clamps to the minimum
	// meaningful threshold 1, and the response reports the applied value.
	d0, err := e.Detect(context.Background(), testParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d0.Threshold != 1 {
		t.Errorf("explicit T=0 applied as %d, want clamp to 1", d0.Threshold)
	}
}

func TestIngestInvalidatesCache(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()

	d1, err := e.Detect(ctx, testParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	g.Append([]bipartite.Edge{{U: 999, V: 999}})
	d2, err := e.Detect(ctx, testParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Cached {
		t.Error("detect after ingest served stale cache")
	}
	if d2.GraphVersion != d1.GraphVersion+1 {
		t.Errorf("versions: %d then %d", d1.GraphVersion, d2.GraphVersion)
	}
	if st := e.Stats(); st.EnsembleRuns != 2 {
		t.Errorf("runs = %d, want 2", st.EnsembleRuns)
	}

	// A duplicate-only batch keeps the version, so the cache stays warm.
	g.Append([]bipartite.Edge{{U: 999, V: 999}})
	d3, err := e.Detect(ctx, testParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Cached {
		t.Error("duplicate-only ingest invalidated the cache")
	}
}

func TestSingleFlight(t *testing.T) {
	e := NewEngine(seedStream(t), Options{MaxConcurrent: 1})
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Votes(context.Background(), testParams()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := e.Stats()
	if st.EnsembleRuns != 1 {
		t.Errorf("%d concurrent identical requests ran the ensemble %d times", callers, st.EnsembleRuns)
	}
	if st.CacheHits+st.CacheMisses != callers || st.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want %d total with 1 miss", st.CacheHits, st.CacheMisses, callers)
	}
}

func TestDistinctConfigsGetDistinctEntries(t *testing.T) {
	e := NewEngine(seedStream(t), Options{})
	ctx := context.Background()
	a, err := e.Votes(ctx, Params{NumSamples: 8, SampleRatio: 0.3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Votes(ctx, Params{NumSamples: 8, SampleRatio: 0.3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Votes == b.Votes {
		t.Error("different seeds shared a cache entry")
	}
	// Normalized-equal params share: zero values vs explicit defaults.
	c, err := e.Votes(ctx, Params{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := e.Votes(ctx, Params{Sampler: "RES", NumSamples: 80, SampleRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Votes != d.Votes {
		t.Error("normalized-identical params missed the cache")
	}
}

// TestCacheEviction pins that the bound counts configs, not versions: four
// configs through a two-config cache keep the last two, and new versions of
// a cached config replace its entry instead of adding one.
func TestCacheEviction(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{MaxCacheEntries: 2})
	ctx := context.Background()
	cfg := func(seed int64) Params { return Params{NumSamples: 4, SampleRatio: 0.2, Seed: seed} }
	for seed := int64(1); seed <= 4; seed++ {
		if _, err := e.Votes(ctx, cfg(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries, want 2", st.CacheEntries)
	}
	for i := 0; i < 3; i++ {
		g.Append([]bipartite.Edge{{U: uint32(5400 + i), V: 3}})
		if _, err := e.Votes(ctx, cfg(4)); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries after new versions of one config, want 2", st.CacheEntries)
	}
}

func TestParamValidation(t *testing.T) {
	e := NewEngine(stream.New(), Options{})
	ctx := context.Background()
	bad := []Params{
		{Sampler: "bogus"},
		{SampleRatio: 2},
		{SampleRatio: -0.5},       // must be rejected, not defaulted
		{SampleRatio: math.NaN()}, // NaN slips past naive range checks
		{SampleRatio: math.Inf(1)},
		{NumSamples: -3},
		{SampleRatio: 0.5, NumSamples: -1},
		{NumSamples: MaxEnsembleSize + 1}, // a huge N is an O(N) allocation
	}
	for _, p := range bad {
		if _, err := e.Votes(ctx, p); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("params %+v: err = %v, want ErrInvalidParams", p, err)
		}
	}
	if st := e.Stats(); st.EnsembleRuns != 0 || st.CacheMisses != 0 {
		t.Errorf("invalid params touched the cache: %+v", st)
	}
}

func TestContextCancellation(t *testing.T) {
	e := NewEngine(seedStream(t), Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Votes(ctx, testParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	// The abandoned run still completes and warms the cache.
	vs, err := e.Votes(context.Background(), testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !vs.Cached {
		t.Log("note: abandoned run had not finished before retry (still correct)")
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"ensemfdet/internal/bipartite"
)

// onsParams picks ONS-merchant, the sampler whose reuse rule tolerates the
// user-universe growth every fresh-user edge causes; RES pins |E| and can
// never resume across an insert.
func onsParams() Params {
	return Params{Sampler: "ONS-merchant", NumSamples: 12, SampleRatio: 0.3, Seed: 7}
}

func TestDetectIncrementalAfterSmallDelta(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()

	d1, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Incremental || d1.ReusedSamples != 0 || d1.RerunSamples != 12 {
		t.Errorf("cold detect reported incremental=%v reused=%d rerun=%d",
			d1.Incremental, d1.ReusedSamples, d1.RerunSamples)
	}

	// One new user transacting with one existing merchant: |V| is stable, so
	// every sample that did not draw that merchant is provably clean.
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	d2, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Incremental {
		t.Fatal("detect after a 1-edge delta did not run incrementally")
	}
	if d2.ReusedSamples+d2.RerunSamples != 12 {
		t.Errorf("reused %d + rerun %d != N = 12", d2.ReusedSamples, d2.RerunSamples)
	}
	if d2.ReusedSamples == 0 {
		t.Error("1-edge delta dirtied every sample (reuse proof never fired)")
	}

	// The incremental answer must be byte-identical to a cold run of the
	// same configuration on the same graph.
	vs, err := e.Votes(ctx, onsParams())
	if err != nil {
		t.Fatal(err)
	}
	cold := NewEngine(g, Options{IncrementalMaxDeltaRatio: -1})
	cvs, err := cold.Votes(ctx, onsParams())
	if err != nil {
		t.Fatal(err)
	}
	if !equalVotes(vs.Votes, cvs.Votes) {
		t.Error("incremental votes differ from cold votes")
	}

	st := e.Stats()
	if st.Detect.IncrementalRuns != 1 || st.Detect.ColdRuns != 1 {
		t.Errorf("detect stats: %+v, want 1 incremental + 1 cold run", st.Detect)
	}
	if st.Detect.SamplesReused != uint64(d2.ReusedSamples) || st.Detect.SamplesRerun != uint64(12+d2.RerunSamples) {
		t.Errorf("sample counters %+v inconsistent with responses (reused=%d rerun=%d)",
			st.Detect, d2.ReusedSamples, d2.RerunSamples)
	}
	if st.Detect.LatencyCount < 2 {
		t.Errorf("latency histogram observed %d requests, want >= 2", st.Detect.LatencyCount)
	}

	// A repeat at the same version is a cache hit that reports the run's
	// original provenance.
	d3, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !d3.Cached || !d3.Incremental || d3.ReusedSamples != d2.ReusedSamples {
		t.Errorf("cached repeat: cached=%v incremental=%v reused=%d, want true/true/%d",
			d3.Cached, d3.Incremental, d3.ReusedSamples, d2.ReusedSamples)
	}
}

func TestIncrementalDisabledByNegativeRatio(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{IncrementalMaxDeltaRatio: -1})
	ctx := context.Background()
	if _, err := e.Detect(ctx, onsParams(), 6); err != nil {
		t.Fatal(err)
	}
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	d, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Incremental {
		t.Error("incremental run despite a negative threshold")
	}
	if st := e.Stats(); st.Detect.ColdRuns != 2 || st.Detect.IncrementalRuns != 0 {
		t.Errorf("detect stats: %+v, want 2 cold runs", st.Detect)
	}
}

func TestIncrementalFallsBackColdWhenDeltaLarge(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	if _, err := e.Detect(ctx, onsParams(), 6); err != nil {
		t.Fatal(err)
	}
	// A batch churning far more than 25% of the graph's edges must not go
	// incremental: classification would mark nearly everything dirty anyway.
	big := make([]bipartite.Edge, 0, 4000)
	for u := uint32(0); u < 100; u++ {
		for v := uint32(0); v < 40; v++ {
			big = append(big, bipartite.Edge{U: 6000 + u, V: v})
		}
	}
	g.Append(big)
	d, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Incremental {
		t.Error("incremental run despite delta past the ratio threshold")
	}
	if st := e.Stats(); st.Detect.ColdRuns != 2 || st.Detect.IncrementalFallbacks != 0 {
		t.Errorf("detect stats: %+v, want 2 cold runs and no fallback (threshold pre-empted the attempt)", st.Detect)
	}
}

func TestIncrementalResInsertFallsBackNotResumable(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	p := Params{Sampler: "RES", NumSamples: 12, SampleRatio: 0.3, Seed: 7}
	if _, err := e.Detect(ctx, p, 6); err != nil {
		t.Fatal(err)
	}
	// RES draws edge indices, so reuse requires |E| unchanged; an insert is
	// provably non-resumable and must fall back cold — correctly, not
	// erroring.
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	d, err := e.Detect(ctx, p, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Incremental {
		t.Error("RES resumed across an |E| change")
	}
	st := e.Stats()
	if st.Detect.IncrementalFallbacks != 1 || st.Detect.ColdRuns != 2 {
		t.Errorf("detect stats: %+v, want 1 fallback and 2 cold runs", st.Detect)
	}
	cold := NewEngine(g, Options{IncrementalMaxDeltaRatio: -1})
	cvs, err := cold.Votes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := e.Votes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !equalVotes(vs.Votes, cvs.Votes) {
		t.Error("fallback votes differ from cold votes")
	}
}

// TestEvictionKeepsIncrementalBaseUnderPressure is the regression test for
// the FIFO-eviction bug: at a small cache bound, inserting version v's entry
// evicted the just-completed v-1 entry — exactly the incremental base —
// before the run could read it, so a tight ingest/detect loop never reused a
// sample. The cache now holds one entry per config, which is also its base,
// and a new version replaces it instead of competing with it for the bound.
func TestEvictionKeepsIncrementalBaseUnderPressure(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{MaxCacheEntries: 1})
	ctx := context.Background()
	if _, err := e.Detect(ctx, onsParams(), 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		g.Append([]bipartite.Edge{{U: uint32(5100 + i), V: 3}})
		d, err := e.Detect(ctx, onsParams(), 6)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Incremental {
			t.Fatalf("cycle %d: eviction pressure broke the incremental chain", i)
		}
	}
	if st := e.Stats(); st.CacheEntries != 1 {
		t.Errorf("cache holds %d entries, want the bound 1", st.CacheEntries)
	}
}

func TestEvictionBoundsPinnedEntriesAcrossFingerprints(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{MaxCacheEntries: 2})
	ctx := context.Background()
	// Every cached entry is its fingerprint's incremental base, so eviction
	// must reclaim bases themselves to hold the memory bound: five configs,
	// each taken through two versions, leave the last two configs cached,
	// each with its base output.
	cfg := func(seed int64) Params {
		return Params{Sampler: "ONS-merchant", NumSamples: 4, SampleRatio: 0.2, Seed: seed}
	}
	for seed := int64(1); seed <= 5; seed++ {
		for i := 0; i < 2; i++ {
			if i > 0 {
				g.Append([]bipartite.Edge{{U: uint32(5500 + seed), V: 3}})
			}
			if _, err := e.Votes(ctx, cfg(seed)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := e.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache holds %d entries, want 2", st.CacheEntries)
	}
	e.mu.Lock()
	for seed := int64(4); seed <= 5; seed++ {
		if ent := e.done[cfg(seed).Fingerprint()]; ent == nil || ent.out == nil {
			t.Errorf("seed %d: newest config is not cached with its base", seed)
		}
	}
	e.mu.Unlock()
}

func TestFlushCacheDropsIncrementalBases(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	if _, err := e.Detect(ctx, onsParams(), 6); err != nil {
		t.Fatal(err)
	}
	e.FlushCache()
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	d, err := e.Detect(ctx, onsParams(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Incremental {
		t.Error("run resumed from a flushed base")
	}
}

func TestDetectHTTPReportsIncrementalFields(t *testing.T) {
	g := seedStream(t)
	srv := httptest.NewServer(NewHandler(NewEngine(g, Options{})))
	defer srv.Close()

	detect := func() (m map[string]any) {
		t.Helper()
		body := `{"t":6,"n":12,"s":0.3,"seed":7,"sampler":"ONS-merchant"}`
		resp, err := http.Post(srv.URL+"/v1/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("detect status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}

	first := detect()
	if first["incremental"] != false || first["rerun_samples"] != float64(12) {
		t.Errorf("cold response: incremental=%v rerun_samples=%v", first["incremental"], first["rerun_samples"])
	}
	g.Append([]bipartite.Edge{{U: 5000, V: 3}})
	second := detect()
	if second["incremental"] != true {
		t.Fatalf("post-delta response not incremental: %v", second)
	}
	if second["reused_samples"].(float64)+second["rerun_samples"].(float64) != 12 {
		t.Errorf("reused %v + rerun %v != 12", second["reused_samples"], second["rerun_samples"])
	}

	// /v1/stats carries the detect section; /metrics the counters and the
	// latency histogram.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Detect DetectStats `json:"detect"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Detect.IncrementalRuns != 1 || st.Detect.ColdRuns != 1 || st.Detect.SamplesReused == 0 {
		t.Errorf("stats detect section: %+v", st.Detect)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"ensemfdetd_detect_incremental_runs_total 1",
		"ensemfdetd_detect_cold_runs_total 1",
		"ensemfdetd_detect_samples_reused_total",
		"ensemfdetd_detect_samples_rerun_total",
		"ensemfdetd_detect_seconds_bucket{le=\"+Inf\"}",
		"ensemfdetd_detect_seconds_sum",
		"ensemfdetd_detect_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestCachedBaseSurvivesLaterRuns pins that a cached incremental base owns
// its per-sample arrays: a later cold run on another config must not write
// into the KHats and SampleWork the first config's cached Output holds.
func TestCachedBaseSurvivesLaterRuns(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	a := onsParams()
	if _, err := e.Votes(ctx, a); err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	base := e.done[a.Fingerprint()].out
	e.mu.Unlock()
	khats := slices.Clone(base.KHats)
	work := slices.Clone(base.SampleWork)

	b := a
	b.Sampler, b.Seed = "TNS", a.Seed+1
	if _, err := e.Votes(ctx, b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(base.KHats, khats) {
		t.Errorf("cached base KHats changed under a later run: %v -> %v", khats, base.KHats)
	}
	if !slices.Equal(base.SampleWork, work) {
		t.Error("cached base SampleWork changed under a later run")
	}
}

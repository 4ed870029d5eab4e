package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/stream"
)

// baseChurnEdges builds the seed edge set every churn script starts from: a
// sparse background plus a dense fraud block, deterministic in seed.
func baseChurnEdges(seed int64) []bipartite.Edge {
	rng := rand.New(rand.NewSource(seed))
	var edges []bipartite.Edge
	seen := map[[2]uint32]bool{}
	add := func(u, v uint32) {
		k := [2]uint32{u, v}
		if !seen[k] {
			seen[k] = true
			edges = append(edges, bipartite.Edge{U: u, V: v})
		}
	}
	for i := 0; i < 900; i++ {
		add(uint32(rng.Intn(250)), uint32(rng.Intn(50)))
	}
	// Dense block: users 250-269 × merchants 50-54.
	for u := uint32(250); u < 270; u++ {
		for v := uint32(50); v < 55; v++ {
			add(u, v)
		}
	}
	// Two remote degree-1 edges far from the busy id range; the "swap"
	// script churns here so samples that never drew them stay provably
	// clean under every sampler's rule.
	add(3000, 70)
	add(3001, 71)
	return edges
}

// churnStep mutates the stream graph and commits at least one version.
type churnStep func(t *testing.T, g *stream.Graph, base []bipartite.Edge)

var churnScripts = map[string][]churnStep{
	// Small insert batch among existing nodes.
	"insert": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			g.Append([]bipartite.Edge{{U: 3, V: 7}, {U: 3, V: 9}, {U: 17, V: 7}})
		},
	},
	// Explicit deletions (unlearning / tombstone replay shape).
	"delete": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			if res := g.Remove(base[:2]); res.Removed != 2 {
				t.Fatalf("Remove removed %d, want 2", res.Removed)
			}
		},
	},
	// Equal-size swap confined to the remote corner: |E| returns to the base
	// count across two commits and both node universes stay fixed, so every
	// sampler's rule — including RES's edge-index-interval argument — can
	// prove untouched samples clean.
	"swap": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			if res := g.Remove([]bipartite.Edge{{U: 3000, V: 70}}); res.Removed != 1 {
				t.Fatalf("Remove removed %d, want 1", res.Removed)
			}
			g.Append([]bipartite.Edge{{U: 3000, V: 71}})
		},
	},
	// Window retire pass (partial, count-bounded eviction); runChurnScript
	// makes this script's graph with a cap three edges under the base.
	"retire": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			if res := g.Retire(time.Now()); res.Removed != 3 {
				t.Fatalf("Retire removed %d, want 3", res.Removed)
			}
		},
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			g.Append([]bipartite.Edge{{U: 9, V: 3}})
		},
	},
	// Node-universe growth: brand-new users attach to one existing merchant
	// (the fraud-burst shape ONS-merchant reuse is designed for).
	"grow": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			g.Append([]bipartite.Edge{{U: 5000, V: 52}, {U: 5001, V: 52}, {U: 5002, V: 52}})
		},
	},
	// Multi-step chain: v→v+1→v+2→v+3, each step reusing the previous
	// step's (possibly incremental) record.
	"chain": {
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			g.Append([]bipartite.Edge{{U: 11, V: 21}})
		},
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			g.Append([]bipartite.Edge{{U: 12, V: 22}, {U: 13, V: 22}})
		},
		func(t *testing.T, g *stream.Graph, base []bipartite.Edge) {
			if res := g.Remove(base[10:11]); res.Removed != 1 {
				t.Fatalf("Remove removed %d, want 1", res.Removed)
			}
		},
	},
}

// TestIncrementalMatchesColdRun is the equivalence suite: across samplers ×
// seeds × shard counts × churn scripts, incremental votes must be
// byte-identical to a cold run at the same version — including chains where
// each step resumes from the previous incremental output.
func TestIncrementalMatchesColdRun(t *testing.T) {
	reusedBySampler := map[string]int{}
	for _, m := range sampling.All() {
		for _, seed := range []int64{0, 1, 2} {
			for _, shards := range []int{1, 4, 16} {
				for name := range churnScripts {
					t.Run(fmt.Sprintf("%s/seed%d/shards%d/%s", m.Name(), seed, shards, name), func(t *testing.T) {
						reusedBySampler[m.Name()] += runChurnScript(t, m, seed, shards, name)
					})
				}
			}
		}
	}
	// The suite must exercise real reuse, not pass vacuously through cold
	// fallbacks: every sampler has at least one script designed to keep some
	// samples provably clean ("swap" for RES, everything small for the node
	// samplers).
	for _, m := range sampling.All() {
		if reusedBySampler[m.Name()] == 0 {
			t.Errorf("sampler %s never reused a sample across the whole suite", m.Name())
		}
	}
}

func runChurnScript(t *testing.T, m sampling.Method, seed int64, shards int, name string) (reused int) {
	base := baseChurnEdges(seed + 7)
	g := stream.NewSharded(shards)
	if name == "retire" {
		g.SetWindow(stream.WindowPolicy{MaxEdges: len(base) - 3})
	}
	if res := g.Append(base); res.Added != len(base) {
		t.Fatalf("base append added %d of %d", res.Added, len(base))
	}
	cfg := Config{
		Method:      m,
		NumSamples:  16,
		SampleRatio: 0.2,
		Seed:        seed,
		Parallelism: 4,
		Record:      true,
	}
	snap, ver := g.Snapshot()
	prev, err := Run(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Rec == nil {
		t.Fatal("recorded run produced no record")
	}
	for si, step := range churnScripts[name] {
		step(t, g, base)
		snap, newVer := g.Snapshot()
		if newVer == ver {
			t.Fatalf("step %d committed nothing", si)
		}
		d, ok := g.Delta(ver, newVer)
		if !ok {
			t.Fatalf("step %d: delta %d→%d unanswerable", si, ver, newVer)
		}
		inc, st, err := RunIncremental(snap, cfg, prev, DeltaInfo{Users: d.Users, Merchants: d.Merchants})
		if errors.Is(err, ErrNotResumable) {
			// Provability fell through (e.g. RES under an |E| change): the
			// fallback is a cold run, which re-records for the next step.
			inc, err = Run(snap, cfg)
		} else if err == nil {
			reused += st.Reused
			if st.Reused+st.Rerun != 16 {
				t.Fatalf("step %d: reused %d + rerun %d != 16", si, st.Reused, st.Rerun)
			}
		}
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		cold, err := Run(snap, cfg)
		if err != nil {
			t.Fatalf("step %d cold: %v", si, err)
		}
		if !slices.Equal(inc.Votes.User, cold.Votes.User) {
			t.Fatalf("step %d: user votes diverge from cold run", si)
		}
		if !slices.Equal(inc.Votes.Merchant, cold.Votes.Merchant) {
			t.Fatalf("step %d: merchant votes diverge from cold run", si)
		}
		if !slices.Equal(inc.KHats, cold.KHats) {
			t.Fatalf("step %d: khats diverge from cold run", si)
		}
		prev, ver = inc, newVer
	}
	return reused
}

// TestIncrementalSwapReusesUnderRES pins that the RES reuse rule is not
// vacuous: an equal-size swap confined to high user ids keeps samples whose
// realized users all sit below the touched interval provably clean.
func TestIncrementalSwapReusesUnderRES(t *testing.T) {
	base := baseChurnEdges(3)
	g := stream.NewSharded(4)
	g.Append(base)
	cfg := Config{Method: sampling.RandomEdge{}, NumSamples: 40, SampleRatio: 0.05, Seed: 9, Record: true}
	snap, ver := g.Snapshot()
	prev, err := Run(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Swap confined to the remote corner: the touched-user interval
	// [3000, 3000] misses every sample that did not draw the lone edge
	// there, and the touched merchants are realized by no one else.
	if res := g.Remove([]bipartite.Edge{{U: 3000, V: 70}}); res.Removed != 1 {
		t.Fatalf("Remove removed %d", res.Removed)
	}
	g.Append([]bipartite.Edge{{U: 3000, V: 71}})
	snap2, newVer := g.Snapshot()
	d, ok := g.Delta(ver, newVer)
	if !ok {
		t.Fatal("delta unanswerable")
	}
	inc, st, err := RunIncremental(snap2, cfg, prev, DeltaInfo{Users: d.Users, Merchants: d.Merchants})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused == 0 {
		t.Fatal("RES swap reused nothing; the interval rule is broken or vacuous")
	}
	cold, err := Run(snap2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inc.Votes.User, cold.Votes.User) || !slices.Equal(inc.Votes.Merchant, cold.Votes.Merchant) {
		t.Fatal("votes diverge from cold run")
	}
}

// TestIncrementalIsolatedDrawnNodeGainsEdge pins the drawn-vs-realized
// subtlety: a drawn zero-degree merchant is absent from the realized
// subgraph, but an edge arriving at it must dirty the sample — classifying
// by realized nodes only would wrongly reuse it.
func TestIncrementalIsolatedDrawnNodeGainsEdge(t *testing.T) {
	// Merchant 40 exists (id space reaches it) but has no edges: users 0-9
	// each bought from merchants 0-3 only, and one edge to merchant 41 fixes
	// the merchant universe above 40.
	var edges []bipartite.Edge
	for u := uint32(0); u < 10; u++ {
		for v := uint32(0); v < 4; v++ {
			edges = append(edges, bipartite.Edge{U: u, V: v})
		}
	}
	edges = append(edges, bipartite.Edge{U: 10, V: 41})
	g := stream.NewSharded(1)
	g.Append(edges)
	// Ratio 1.0 draws every merchant, including isolated merchant 40.
	cfg := Config{
		Method:      sampling.OneSideNode{Side: bipartite.MerchantSide},
		NumSamples:  4,
		SampleRatio: 1.0,
		Seed:        5,
		Record:      true,
	}
	snap, ver := g.Snapshot()
	prev, err := Run(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Merchant 40 gains its first edge from an existing user: nm unchanged,
	// so the config is resumable — but every sample drew merchant 40, so all
	// must be dirty.
	g.Append([]bipartite.Edge{{U: 3, V: 40}})
	snap2, newVer := g.Snapshot()
	d, ok := g.Delta(ver, newVer)
	if !ok {
		t.Fatal("delta unanswerable")
	}
	inc, st, err := RunIncremental(snap2, cfg, prev, DeltaInfo{Users: d.Users, Merchants: d.Merchants})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != 0 {
		t.Fatalf("reused %d samples that drew the newly-connected merchant", st.Reused)
	}
	cold, err := Run(snap2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(inc.Votes.User, cold.Votes.User) || !slices.Equal(inc.Votes.Merchant, cold.Votes.Merchant) {
		t.Fatal("votes diverge from cold run")
	}
}

// TestRunIncrementalNotResumable covers every deliberate fallback-to-cold
// path.
func TestRunIncrementalNotResumable(t *testing.T) {
	base := baseChurnEdges(1)
	g := stream.NewSharded(2)
	g.Append(base)
	snap, _ := g.Snapshot()
	cfg := Config{Method: sampling.OneSideNode{Side: bipartite.MerchantSide}, NumSamples: 8, SampleRatio: 0.3, Seed: 2, Record: true}
	prev, err := Run(snap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := DeltaInfo{Users: []uint32{1}, Merchants: []uint32{1}}

	cases := map[string]struct {
		prev *Output
		cfg  Config
		g    *bipartite.Graph
	}{
		"no record": {prev: &Output{Votes: prev.Votes}, cfg: cfg, g: snap},
		"record off": {prev: prev, cfg: func() Config {
			c := cfg
			c.Record = false
			return c
		}(), g: snap},
		"seed mismatch": {prev: prev, cfg: func() Config {
			c := cfg
			c.Seed = 99
			return c
		}(), g: snap},
		"n mismatch": {prev: prev, cfg: func() Config {
			c := cfg
			c.NumSamples = 9
			return c
		}(), g: snap},
		"ratio mismatch": {prev: prev, cfg: func() Config {
			c := cfg
			c.SampleRatio = 0.4
			return c
		}(), g: snap},
		"sampler mismatch": {prev: prev, cfg: func() Config {
			c := cfg
			c.Method = sampling.RandomEdge{}
			return c
		}(), g: snap},
		"collect scores": {prev: prev, cfg: func() Config {
			c := cfg
			c.CollectScores = true
			return c
		}(), g: snap},
		"custom metric": {prev: prev, cfg: func() Config {
			c := cfg
			c.FDet.Metric = density.AvgDegree{}
			return c
		}(), g: snap},
	}
	for name, tc := range cases {
		if _, _, err := RunIncremental(tc.g, tc.cfg, tc.prev, delta); !errors.Is(err, ErrNotResumable) {
			t.Errorf("%s: err = %v, want ErrNotResumable", name, err)
		}
	}

	// Population-size shifts the draw depends on: |V| change for
	// ONS-merchant, |E| change for RES.
	g.Append([]bipartite.Edge{{U: 1, V: 2000}})
	snap2, _ := g.Snapshot()
	if _, _, err := RunIncremental(snap2, cfg, prev, delta); !errors.Is(err, ErrNotResumable) {
		t.Errorf("|V| growth: err = %v, want ErrNotResumable", err)
	}
	resCfg := cfg
	resCfg.Method = sampling.RandomEdge{}
	prevRES, err := Run(snap, resCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunIncremental(snap2, resCfg, prevRES, delta); !errors.Is(err, ErrNotResumable) {
		t.Errorf("|E| growth under RES: err = %v, want ErrNotResumable", err)
	}
}

// TestRecordingDoesNotChangeVotes pins that Record is observability-only:
// votes with and without it are byte-identical.
func TestRecordingDoesNotChangeVotes(t *testing.T) {
	gb, _ := plantedGraph(11, 200, 40, 800, 2, 10, 4)
	for _, m := range sampling.All() {
		cfg := Config{Method: m, NumSamples: 12, SampleRatio: 0.25, Seed: 4}
		plain, err := Run(gb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Record = true
		recorded, err := Run(gb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if recorded.Rec == nil {
			t.Fatalf("%s: no record", m.Name())
		}
		if !slices.Equal(plain.Votes.User, recorded.Votes.User) ||
			!slices.Equal(plain.Votes.Merchant, recorded.Votes.Merchant) {
			t.Fatalf("%s: recording changed votes", m.Name())
		}
	}
}

// TestClassifyCleanDoesNotAllocate is the allocs/op gate on the reuse path:
// re-classifying samples against a delta, clean or not, must not allocate
// when the dirty list is scratch-backed.
func TestClassifyCleanDoesNotAllocate(t *testing.T) {
	gb, _ := plantedGraph(13, 300, 60, 1200, 2, 10, 4)
	for _, m := range sampling.All() {
		cfg := Config{Method: m, NumSamples: 16, SampleRatio: 0.2, Seed: 3, Record: true}
		out, err := Run(gb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := out.Rec
		delta := DeltaInfo{Users: []uint32{1, 2, 3}, Merchants: []uint32{1, 2}}
		dst := make([]int, 0, rec.n)
		allocs := testing.AllocsPerRun(100, func() {
			dst = classify(rec, delta, 1, 3, dst[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: classify allocated %.1f/op, want 0", m.Name(), allocs)
		}
	}
}

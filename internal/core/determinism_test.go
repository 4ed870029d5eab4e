package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
)

// referenceVotes recomputes the ensemble votes the slow, allocating way: one
// fresh sampler draw and one fresh FDET detection per sample, vote sets
// materialized via the public union helpers. This mirrors the pre-arena
// implementation of Run and is the ground truth the zero-allocation hot
// path must match byte for byte.
func referenceVotes(t *testing.T, g *bipartite.Graph, cfg Config) Votes {
	t.Helper()
	n := cfg.numSamples()
	method := cfg.method()
	ratio := cfg.sampleRatio()
	metric := cfg.FDet.Metric
	if metric == nil {
		metric = density.Default()
	}
	parentWeights := metric.MerchantWeights(g)
	votes := Votes{
		User:       make([]int, g.NumUsers()),
		Merchant:   make([]int, g.NumMerchants()),
		NumSamples: n,
	}
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*2_654_435_761 + 1))
		sg := method.Sample(g, ratio, rng)
		opts := cfg.FDet
		opts.MerchantWeights = make([]float64, sg.NumMerchants())
		for lv := range opts.MerchantWeights {
			opts.MerchantWeights[lv] = parentWeights[sg.ParentMerchant(uint32(lv))]
		}
		res := fdet.Detect(sg.Graph, opts)
		// A sample votes once for each node in any of its retained blocks.
		votedU, votedM := make(map[uint32]bool), make(map[uint32]bool)
		for _, blk := range res.Blocks {
			for _, lu := range blk.Users {
				if !votedU[lu] {
					votedU[lu] = true
					votes.User[sg.ParentUser(lu)]++
				}
			}
			for _, lv := range blk.Merchants {
				if !votedM[lv] {
					votedM[lv] = true
					votes.Merchant[sg.ParentMerchant(lv)]++
				}
			}
		}
	}
	return votes
}

// TestRunMatchesReferencePipeline proves the arena-backed hot path computes
// exactly the votes of the naive per-sample pipeline, for every sampling
// method. This is the tentpole's non-negotiable invariant.
func TestRunMatchesReferencePipeline(t *testing.T) {
	g, _ := plantedGraph(21, 250, 220, 600, 2, 7, 7)
	for _, m := range sampling.All() {
		cfg := Config{Method: m, NumSamples: 10, SampleRatio: 0.3, Seed: 5}
		out, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		want := referenceVotes(t, g, cfg)
		if !reflect.DeepEqual(out.Votes, want) {
			t.Errorf("%s: arena votes differ from reference pipeline", m.Name())
		}
	}
}

// TestRunDeterministicAcrossParallelismLevels pins the satellite contract:
// the same Seed yields identical Votes for Parallelism ∈ {1, 4, GOMAXPROCS}.
func TestRunDeterministicAcrossParallelismLevels(t *testing.T) {
	g, _ := plantedGraph(31, 300, 300, 700, 2, 8, 8)
	cfg := Config{NumSamples: 16, SampleRatio: 0.2, Seed: 9}
	var ref *Output
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg.Parallelism = par
		out, err := Run(g, cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if !reflect.DeepEqual(out.Votes, ref.Votes) {
			t.Errorf("votes differ at parallelism %d", par)
		}
		if !reflect.DeepEqual(out.KHats, ref.KHats) {
			t.Errorf("kˆ values differ at parallelism %d", par)
		}
	}
}

// TestRunDeterministicWithWarmedArenas runs the ensemble twice through the
// same ArenaPool — the second run reuses every warmed buffer (remappers,
// peeler state, vote accumulators) — and again after warming the pool on a
// *different* graph and config, which is the serving engine's actual reuse
// pattern across versions. All runs must agree with a pool-free run.
func TestRunDeterministicWithWarmedArenas(t *testing.T) {
	g, _ := plantedGraph(41, 280, 260, 650, 2, 8, 8)
	cfg := Config{NumSamples: 12, SampleRatio: 0.25, Seed: 3, Parallelism: 4}
	cold, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	pool := NewArenaPool()
	cfg.Arenas = pool
	first, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Votes, cold.Votes) {
		t.Error("pooled run differs from pool-free run")
	}
	if !reflect.DeepEqual(second.Votes, cold.Votes) {
		t.Error("warmed-arena rerun differs from pool-free run")
	}

	// Pollute the pool with a larger graph and different sampler, then
	// verify the original detection is still bit-for-bit reproducible.
	big, _ := plantedGraph(43, 600, 500, 2000, 3, 9, 9)
	bigCfg := Config{Method: sampling.TwoSideNode{}, NumSamples: 8, SampleRatio: 0.5, Seed: 77, Parallelism: 4, Arenas: pool}
	if _, err := Run(big, bigCfg); err != nil {
		t.Fatal(err)
	}
	third, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(third.Votes, cold.Votes) {
		t.Error("arena reuse across graphs leaked state into votes")
	}
}

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

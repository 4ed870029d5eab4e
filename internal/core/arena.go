package core

import (
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/scratch"
)

// Arena is the scratch state of one ensemble worker: the sampler's index
// buffers and subgraph-build arena, the FDET peeler state, the per-sample
// merchant-weight buffer, the per-sample vote dedup stamps, and the
// worker-local vote accumulators. Each worker of a run makes one arena when
// it starts, processes all its samples with it, and drops it when the job
// channel drains, so the per-sample path allocates nothing after the first
// few samples warm the buffers, and nothing outlives the run.
//
// Arenas hold scratch only — nothing in an arena influences detection
// results, which stay byte-identical for a fixed Config.Seed at any
// parallelism (pinned by determinism tests).
type Arena struct {
	samp    sampling.Scratch
	det     fdet.Scratch
	weights []float64
	seenU   scratch.Stamps // per-sample vote dedup: a node votes once per sample
	seenV   scratch.Stamps
	// Worker-local vote accumulators in the parent id space; merged into
	// the output under one lock per worker instead of one per sample.
	userVotes  []int
	merchVotes []int
}

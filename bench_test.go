// Benchmarks regenerating every table and figure of the paper's evaluation
// (§V), one testing.B benchmark per artifact, plus micro-benchmarks of the
// pipeline stages used for the ablation notes in EXPERIMENTS.md.
//
// Each experiment benchmark runs the same code path as `cmd/repro -exp X`
// at a reduced scale (dataset generation is excluded from timing). Run with:
//
//	go test -bench=. -benchmem
package ensemfdet_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemfdet"
	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/experiments"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/fraudar"
	"ensemfdet/internal/linalg"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/spectral"
)

// benchScale is the unit-test scale of internal/experiments with a seed
// distinct from the tests', so cached datasets do not leak assumptions
// between suites.
func benchScale() experiments.Scale {
	return experiments.Scale{Graph: 0.006, N: 32, TMax: 16, FraudarK: 10, SpectralRank: 25, Seed: 99}
}

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	env := experiments.NewEnv(benchScale())
	// Generate datasets outside the timed region.
	for _, id := range datagen.AllPresets() {
		if _, err := env.Dataset(id); err != nil {
			b.Fatal(err)
		}
	}
	runner, err := experiments.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner(env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per table/figure ---

func BenchmarkTable1DatasetStats(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable3TimeComparison(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkFig1BlockScores(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkFig3MethodComparison(b *testing.B)  { benchExperiment(b, "fig3") }
func BenchmarkFig4DetectedCurve(b *testing.B)     { benchExperiment(b, "fig4") }
func BenchmarkFig5SamplerComparison(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6Truncation(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7ImpactN(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8ImpactS(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9ImpactT(b *testing.B)           { benchExperiment(b, "fig9") }

// --- micro-benchmarks of the pipeline stages ---

func benchGraph(b *testing.B) *bipartite.Graph {
	b.Helper()
	env := experiments.NewEnv(benchScale())
	ds, err := env.Dataset(datagen.Dataset1)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Graph
}

// BenchmarkFDETFullGraph measures one full FDET run (peel + truncate) on
// Dataset #1 — the unit of work FRAUDAR performs K times and the ensemble
// performs once per (much smaller) sample.
func BenchmarkFDETFullGraph(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fdet.Detect(g, fdet.Options{})
	}
}

// BenchmarkSampleRES measures one S=0.1 random-edge sample, the ensemble's
// per-sample setup cost, on the one-shot (allocating) path.
func BenchmarkSampleRES(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(sampling.RandomEdge{}).Sample(g, 0.1, rng)
	}
}

// BenchmarkSampleRESScratch is the ensemble worker's actual per-sample
// path: a warmed sampling.Scratch makes the draw allocation-free.
func BenchmarkSampleRESScratch(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(1))
	s := new(sampling.Scratch)
	sampling.SampleInto(sampling.RandomEdge{}, g, 0.1, rng, s) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampling.SampleInto(sampling.RandomEdge{}, g, 0.1, rng, s)
	}
}

// BenchmarkSampleONSMerchant measures one merchant-side node sample, which
// retains full columns and is therefore the heaviest sampler.
func BenchmarkSampleONSMerchant(b *testing.B) {
	g := benchGraph(b)
	rng := rand.New(rand.NewSource(1))
	m := sampling.OneSideNode{Side: bipartite.MerchantSide}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample(g, 0.1, rng)
	}
}

// BenchmarkEnsembleRun measures the full Algorithm 2 parallel phase at the
// paper's S=0.1 with a bench-scale N.
func BenchmarkEnsembleRun(b *testing.B) {
	g := benchGraph(b)
	cfg := core.Config{NumSamples: 16, SampleRatio: 0.1, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeelOnce isolates the cross-round cost of one peeling round
// inside a multi-block detection: a warm peeler peels its graph to
// exhaustion, so allocs/op exposes any per-round slice churn (the seed
// reallocated every priority/degree/order/membership slice per round).
// rounds/op is a custom metric, constant for a fixed graph — it makes
// ns/op ÷ rounds/op the per-round cost without baking a derived time
// metric into the output (benchstat can only difference raw metrics).
func BenchmarkPeelOnce(b *testing.B) {
	g := benchGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		res := fdet.Detect(g, fdet.Options{FixedK: 8})
		rounds += len(res.Scores)
	}
	b.StopTimer()
	if rounds == 0 {
		b.Fatal("no peeling rounds")
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

// BenchmarkEnsembleN80 is the paper's main setting (RES, N=80, S=0.1) and
// the PR-over-PR allocation regression guard: the ensemble hot path is meant
// to be allocation-free after arena warm-up, so allocs/op here must stay
// O(workers + N), not O(N·subgraph).
func BenchmarkEnsembleN80(b *testing.B) {
	g := benchGraph(b)
	cfg := core.Config{NumSamples: 80, SampleRatio: 0.1, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFraudarK10 measures the baseline's 10-block detection on the
// full graph for comparison with BenchmarkEnsembleRun (Table III's ratio).
func BenchmarkFraudarK10(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fraudar.Detect(g, fraudar.Config{K: 10})
	}
}

// BenchmarkTruncatedSVD measures the rank-25 decomposition behind the
// spectral baselines.
func BenchmarkTruncatedSVD(b *testing.B) {
	g := benchGraph(b)
	adj := spectral.Adjacency(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.TruncatedSVD(adj, 25, 3, 1)
	}
}

// BenchmarkVoteAggregation measures MVA thresholding over a realistic vote
// vector (Definition 4).
func BenchmarkVoteAggregation(b *testing.B) {
	g := benchGraph(b)
	cfg := core.Config{NumSamples: 16, SampleRatio: 0.1, Seed: 1}
	out, err := core.Run(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := 1; t <= out.Votes.NumSamples; t++ {
			out.Votes.CountUsersAt(t)
		}
	}
}

// BenchmarkPublicDetect measures the end-to-end public API path.
func BenchmarkPublicDetect(b *testing.B) {
	g := benchGraph(b)
	det, err := ensemfdet.NewDetector(ensemfdet.Config{NumSamples: 16, SampleRatio: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild measures CSR construction from an edge list — the
// substrate cost every sampler pays per sample.
func BenchmarkGraphBuild(b *testing.B) {
	g := benchGraph(b)
	edges := g.EdgeList()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bipartite.FromEdges(g.NumUsers(), g.NumMerchants(), edges); err != nil {
			b.Fatal(err)
		}
	}
}

// --- streaming / serving layer ---

// benchEdgePool pre-generates distinct random edges so the ingest benchmark
// times only Append (dedup + log + version), not edge generation.
func benchEdgePool(n int) []bipartite.Edge {
	rng := rand.New(rand.NewSource(17))
	seen := make(map[uint64]struct{}, n)
	pool := make([]bipartite.Edge, 0, n)
	for len(pool) < n {
		e := bipartite.Edge{U: uint32(rng.Intn(1 << 20)), V: uint32(rng.Intn(1 << 18))}
		k := uint64(e.U)<<32 | uint64(e.V)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		pool = append(pool, e)
	}
	return pool
}

// BenchmarkStreamIngest measures dynamic-graph ingest throughput in batches
// of 1024 fresh edges; the edges/s metric is the daemon's sustained write
// capacity per core.
func BenchmarkStreamIngest(b *testing.B) {
	const batch = 1024
	pool := benchEdgePool(1 << 18)
	sg := ensemfdet.NewStreamGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := (i * batch) % (len(pool) - batch)
		if i > 0 && off == 0 {
			// Pool exhausted: restart on a fresh graph outside the metric's
			// meaning (still timed; amortized away for large b.N).
			sg = ensemfdet.NewStreamGraph()
		}
		sg.Append(pool[off : off+batch])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "edges/s")
}

// BenchmarkStreamSnapshot measures the copy-on-snapshot CSR build that a
// cold detection pays after each ingest batch.
func BenchmarkStreamSnapshot(b *testing.B) {
	sg := ensemfdet.NewStreamGraph()
	sg.Append(benchEdgePool(1 << 17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bump the version so every iteration rebuilds instead of hitting
		// the snapshot cache.
		sg.Append([]ensemfdet.Edge{{U: uint32(1<<21 + i), V: 0}})
		if snap, _ := sg.Snapshot(); snap.NumEdges() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

// BenchmarkIngestParallel measures multi-producer append throughput: 8
// goroutines ingest an identical deterministic sequence of 256-edge batches
// into a 1-shard graph (the old single-mutex spine) and an 8-shard graph.
// The shards=8/shards=1 edges/s ratio is the sharding win; the edge sequence
// cycles a 2^22-pair space so memory stays bounded at any b.N.
func BenchmarkIngestParallel(b *testing.B) {
	const (
		workers = 8
		batch   = 256
	)
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sg := ensemfdet.NewStreamGraphSharded(shards)
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
						for j := range buf {
							// Cheap deterministic unique-ish pairs: the same
							// sequence regardless of scheduling, so both
							// shard counts ingest identical workloads.
							k := (uint64(i)*batch + uint64(j)) & (1<<22 - 1)
							h := (k + 1) * 0x9E3779B97F4A7C15
							buf[j] = bipartite.Edge{
								U: uint32(h>>40) & (1<<20 - 1),
								V: uint32(h>>20) & (1<<18 - 1),
							}
						}
						sg.Append(buf)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkSnapshotDelta measures the incremental snapshot path: a fixed
// 64-edge delta against base graphs of different sizes. The point of the
// sub-benchmark pair is the allocs/op column — it must be identical across
// base sizes (the delta build allocates its four output arrays and per-build
// bookkeeping, never O(|E|) scratch), which the CI allocs gate pins.
func BenchmarkSnapshotDelta(b *testing.B) {
	for _, size := range []int{1 << 15, 1 << 17} {
		b.Run(fmt.Sprintf("E=%d", size), func(b *testing.B) {
			sg := ensemfdet.NewStreamGraphSharded(8)
			sg.Append(benchEdgePool(size))
			sg.Snapshot() // pay the initial full build outside the loop
			const delta = 64
			buf := make([]bipartite.Edge, delta)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range buf {
					// A fresh merchant id per iteration guarantees every
					// delta edge is new without unbounded user growth.
					buf[j] = bipartite.Edge{
						U: uint32((uint64(i)*delta + uint64(j)) * 2654435761 & (1<<20 - 1)),
						V: uint32(1<<18 + i),
					}
				}
				sg.Append(buf)
				if snap, _ := sg.Snapshot(); snap.NumEdges() == 0 {
					b.Fatal("empty snapshot")
				}
			}
			b.StopTimer()
			if bs := sg.BuildStats(); bs.DeltaBuilds != uint64(b.N) {
				b.Fatalf("delta path used for %d of %d snapshots", bs.DeltaBuilds, b.N)
			}
		})
	}
}

// BenchmarkWindowedChurn measures the steady-state cost of a sliding-window
// daemon: a graph pinned at ~64k live edges ingests fresh 256-edge batches
// while a MaxEdges window retires the oldest versions every 16 batches and a
// snapshot rebuild (delta path with deletions) follows each retire. edges/s
// is the sustained churn throughput; compare against the unbounded
// BenchmarkStreamIngest / BenchmarkSnapshotDelta numbers in BENCH_pr3.json —
// windowing must not regress the append path itself (the retire pass and
// deletion-aware merges are the new, additive cost).
func BenchmarkWindowedChurn(b *testing.B) {
	const (
		windowEdges  = 1 << 16
		batch        = 256
		retireEvery  = 16
		idSpaceUsers = 1 << 20
	)
	sg := ensemfdet.NewStreamGraphSharded(8)
	sg.SetWindow(ensemfdet.WindowPolicy{MaxEdges: windowEdges})
	buf := make([]bipartite.Edge, batch)
	seq := uint64(0)
	fill := func() {
		for j := range buf {
			k := seq
			seq++
			h := (k + 1) * 0x9E3779B97F4A7C15
			// Cycle a bounded id space: after the window retires an edge its
			// ids eventually recur, exercising the re-ingest path too.
			buf[j] = bipartite.Edge{
				U: uint32(h>>40) & (idSpaceUsers - 1),
				V: uint32(h>>20) & (1<<18 - 1),
			}
		}
	}
	// Pre-fill to the window size so the loop measures steady state.
	for sg.Stats().NumEdges < windowEdges {
		fill()
		sg.Append(buf)
	}
	sg.Retire(time.Now())
	sg.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill()
		sg.Append(buf)
		if i%retireEvery == retireEvery-1 {
			sg.Retire(time.Now())
			if snap, _ := sg.Snapshot(); snap.NumEdges() == 0 {
				b.Fatal("window drained the graph")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "edges/s")
	if ws := sg.WindowStats(); b.N > 2*retireEvery && ws.RetiredEdges == 0 {
		b.Fatal("steady-state churn never retired anything")
	}
}

// benchEngine returns a detect engine over an ingested bench-scale graph.
func benchEngine(b *testing.B) *ensemfdet.DetectEngine {
	b.Helper()
	g := benchGraph(b)
	sg := ensemfdet.NewStreamGraph()
	sg.Append(g.EdgeList())
	return ensemfdet.NewDetectEngine(sg, ensemfdet.EngineOptions{})
}

// BenchmarkDetectCold measures a cache-miss detection: every iteration uses
// a distinct seed, forcing a full ensemble run (the latency a client sees
// the first time it queries a fresh graph version).
func BenchmarkDetectCold(b *testing.B) {
	e := benchEngine(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := ensemfdet.DetectParams{NumSamples: 16, SampleRatio: 0.1, Seed: int64(i + 1)}
		if _, err := e.Detect(ctx, p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectIncremental measures the delta-aware detect path against a
// cold recompute at increasing ingest deltas. Each iteration applies one
// delta-sized batch and serves one detect at the paper's N=80: the
// incremental engine resumes from the previous version's record and re-runs
// only the samples the delta dirtied; the cold engine recomputes all 80.
// The batch alternates append/remove of the same fresh edges so the graph
// size stays bounded at any b.N, and its shape is a fraud burst — fresh
// users transacting with a few hot merchants — under which ONS-merchant
// proves every sample that did not draw a touched merchant clean. Ingest and
// the post-ingest CSR build run with the timer stopped (both modes pay them
// identically; BenchmarkSnapshotDelta gates that path), so the timed region
// is detection at an already-snapshotted version. The reused/sample metric
// is the measured clean fraction; the incremental/cold ns/op ratio at
// delta=0.1pct is the PR's headline speedup.
func BenchmarkDetectIncremental(b *testing.B) {
	base := benchGraph(b)
	ne := base.NumEdges()
	deltas := []struct {
		name  string
		edges int
	}{
		{"delta=1edge", 1},
		{"delta=0.1pct", max(1, ne/1000)},
		{"delta=1pct", max(1, ne/100)},
		{"delta=10pct", max(1, ne/10)},
	}
	for _, d := range deltas {
		// ~256 burst edges per hot merchant; fresh user ids start right above
		// the existing range so vote-vector sizes stay realistic.
		hot := max(1, d.edges/256)
		batch := make([]bipartite.Edge, d.edges)
		for j := range batch {
			batch[j] = bipartite.Edge{U: uint32(base.NumUsers() + j), V: uint32(j % hot)}
		}
		for _, mode := range []struct {
			name string
			opts ensemfdet.EngineOptions
		}{
			{"incremental", ensemfdet.EngineOptions{}},
			{"cold", ensemfdet.EngineOptions{IncrementalMaxDeltaRatio: -1}},
		} {
			b.Run(d.name+"/"+mode.name, func(b *testing.B) {
				sg := ensemfdet.NewStreamGraph()
				sg.Append(base.EdgeList())
				e := ensemfdet.NewDetectEngine(sg, mode.opts)
				ctx := context.Background()
				p := ensemfdet.DetectParams{Sampler: "ONS-merchant", NumSamples: 80, SampleRatio: 0.1, Seed: 1}
				if _, err := e.Detect(ctx, p, 40); err != nil { // warm the base
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if i%2 == 0 {
						sg.Append(batch)
					} else {
						sg.Remove(batch)
					}
					sg.Snapshot() // build the CSR outside the timed region
					b.StartTimer()
					if _, err := e.Detect(ctx, p, 40); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := e.Stats()
				if mode.name == "incremental" && st.Detect.IncrementalRuns == 0 {
					b.Fatal("no run went incremental")
				}
				if total := st.Detect.SamplesReused + st.Detect.SamplesRerun; total > 0 {
					b.ReportMetric(float64(st.Detect.SamplesReused)/float64(total), "reused/sample")
				}
			})
		}
	}
}

// BenchmarkDetectCached measures the steady-state query path: same graph
// version, same config, any threshold — a map lookup plus an O(nodes)
// threshold scan. The cold/cached ratio is the serving layer's whole point.
func BenchmarkDetectCached(b *testing.B) {
	e := benchEngine(b)
	ctx := context.Background()
	p := ensemfdet.DetectParams{NumSamples: 16, SampleRatio: 0.1, Seed: 1}
	if _, err := e.Detect(ctx, p, 8); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Detect(ctx, p, 1+i%16); err != nil {
			b.Fatal(err)
		}
	}
}

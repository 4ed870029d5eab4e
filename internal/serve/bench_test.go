package serve

import (
	"context"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/stream"
)

// unitGraph is Dataset #1 at the unit-test scale of internal/experiments
// (0.006 of Table I, seed 99): 2,729 users, 1,376 merchants, 6,078 edges.
func unitGraph(b *testing.B) *bipartite.Graph {
	b.Helper()
	ds, err := datagen.GeneratePreset(datagen.Dataset1, 0.006, 99)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Graph
}

// BenchmarkDetectCold measures a cache miss: every iteration asks with a
// fresh seed, so every detect runs the whole ensemble (N = 16, S = 0.1),
// its workers building their scratch from empty.
func BenchmarkDetectCold(b *testing.B) {
	sg := stream.New()
	sg.Append(unitGraph(b).EdgeList())
	e := NewEngine(sg, Options{})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Params{NumSamples: 16, SampleRatio: 0.1, Seed: int64(i + 1)}
		if _, err := e.Detect(ctx, p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectIncremental measures the delta-aware detect against a cold
// recompute at four delta sizes, at the paper's N = 80 under ONS-merchant.
// Each iteration applies one delta and serves one detect: the incremental
// engine resumes from the previous version's record and re-runs only the
// samples the delta dirtied; the cold engine re-runs all 80. The delta
// alternates appending and removing the same fresh edges, so the graph
// stays bounded, and it is shaped as a fraud burst: fresh users buying from
// a few hot merchants, about 256 edges each, so every sample that drew no
// hot merchant is provably clean. Ingest and the snapshot build run with the
// timer stopped, since both modes pay them alike; reused/sample is the
// clean fraction.
func BenchmarkDetectIncremental(b *testing.B) {
	base := unitGraph(b)
	ne := base.NumEdges()
	for _, d := range []struct {
		name  string
		edges int
	}{
		{"delta=1edge", 1},
		{"delta=0.1pct", max(1, ne/1000)},
		{"delta=1pct", max(1, ne/100)},
		{"delta=10pct", max(1, ne/10)},
	} {
		hot := max(1, d.edges/256)
		batch := make([]bipartite.Edge, d.edges)
		for j := range batch {
			batch[j] = bipartite.Edge{U: uint32(base.NumUsers() + j), V: uint32(j % hot)}
		}
		for _, mode := range []struct {
			name string
			opts Options
		}{
			{"incremental", Options{}},
			{"cold", Options{IncrementalMaxDeltaRatio: -1}},
		} {
			b.Run(d.name+"/"+mode.name, func(b *testing.B) {
				sg := stream.New()
				sg.Append(base.EdgeList())
				e := NewEngine(sg, mode.opts)
				ctx := context.Background()
				p := Params{Sampler: "ONS-merchant", NumSamples: 80, SampleRatio: 0.1, Seed: 1}
				if _, err := e.Detect(ctx, p, 40); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if i%2 == 0 {
						sg.Append(batch)
					} else {
						sg.Remove(batch)
					}
					sg.Snapshot()
					b.StartTimer()
					if _, err := e.Detect(ctx, p, 40); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := e.Stats().Detect
				if mode.name == "incremental" && st.IncrementalRuns == 0 {
					b.Fatal("no run went incremental")
				}
				if total := st.SamplesReused + st.SamplesRerun; total > 0 {
					b.ReportMetric(float64(st.SamplesReused)/float64(total), "reused/sample")
				}
			})
		}
	}
}

package sampling

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
)

// snapshotSubgraph deep-copies the parts of a subgraph a later arena build
// would overwrite, so two draws from one scratch can be compared.
type subgraphSnapshot struct {
	edges       []bipartite.Edge
	userIDs     []uint32
	merchantIDs []uint32
}

func snapshot(sg *bipartite.Subgraph) subgraphSnapshot {
	return subgraphSnapshot{
		edges:       sg.EdgeList(),
		userIDs:     append([]uint32{}, sg.UserIDs...),
		merchantIDs: append([]uint32{}, sg.MerchantIDs...),
	}
}

// TestSampleIntoMatchesSample proves the scratch path draws exactly the
// subgraph the allocating path draws — same rng consumption, same edges,
// same parent id maps — for every method, across repeated reuse of one
// scratch (the ensemble worker's access pattern).
func TestSampleIntoMatchesSample(t *testing.T) {
	g := randomGraph(11, 120, 90, 900)
	for _, m := range All() {
		s := new(Scratch)
		rngA := rand.New(rand.NewSource(5))
		rngB := rand.New(rand.NewSource(5))
		for draw := 0; draw < 6; draw++ {
			ratio := 0.05 + 0.15*float64(draw)
			got := snapshot(SampleInto(m, g, ratio, rngA, s))
			want := snapshot(m.Sample(g, ratio, rngB))
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s draw %d (S=%.2f): scratch draw differs from allocating draw", m.Name(), draw, ratio)
			}
		}
	}
}

// TestSampleIntoAcrossGraphs reuses one scratch against parents of very
// different sizes: a draw must carry no state from one parent into the next.
func TestSampleIntoAcrossGraphs(t *testing.T) {
	big := randomGraph(21, 300, 260, 4000)
	small := randomGraph(22, 10, 8, 30)
	s := new(Scratch)
	for i := 0; i < 3; i++ {
		for _, g := range []*bipartite.Graph{big, small} {
			for _, m := range All() {
				rngA := rand.New(rand.NewSource(int64(i) + 100))
				rngB := rand.New(rand.NewSource(int64(i) + 100))
				got := snapshot(SampleInto(m, g, 0.3, rngA, s))
				want := snapshot(m.Sample(g, 0.3, rngB))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %v: reuse across graphs changed the draw", m.Name(), g)
				}
			}
		}
	}
}

// TestSampleIntoDoesNotAllocate pins the ensemble worker's per-sample path:
// once a scratch has grown to the largest of a run of draws, drawing them
// again allocates nothing, under every sampler. The parent is Dataset #1 at
// scale 0.006, seed 99, drawn at the paper's S = 0.1.
func TestSampleIntoDoesNotAllocate(t *testing.T) {
	ds, err := datagen.GeneratePreset(datagen.Dataset1, 0.006, 99)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // count the code's allocations, not a collection's
	for _, m := range All() {
		s := new(Scratch)
		allocs := testing.AllocsPerRun(10, func() {
			rng.Seed(1)
			for range 8 {
				SampleInto(m, ds.Graph, 0.1, rng, s)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: 8 warm draws allocate %v times, want 0", m.Name(), allocs)
		}
	}
}

// fallbackMethod is a Method unknown to SampleInto's type switch.
type fallbackMethod struct{}

func (fallbackMethod) Name() string { return "custom" }
func (fallbackMethod) Sample(g *bipartite.Graph, ratio float64, rng *rand.Rand) *bipartite.Subgraph {
	return g.InducedByUsers([]uint32{0})
}

func TestSampleIntoFallsBackForUnknownMethods(t *testing.T) {
	g := randomGraph(31, 20, 20, 60)
	sg := SampleInto(fallbackMethod{}, g, 0.5, rand.New(rand.NewSource(1)), new(Scratch))
	if sg.NumUsers() != 1 || sg.ParentUser(0) != 0 {
		t.Errorf("fallback did not delegate to Method.Sample: %v", sg)
	}
}

// induceGraph is the parent the induce benchmarks draw from: Dataset #1 at
// scale 0.25, seed 7, the graph the benchmark's serve_incremental workload
// detects on. Generated once per process.
var induceGraph = sync.OnceValues(func() (*bipartite.Graph, error) {
	ds, err := datagen.GeneratePreset(datagen.Dataset1, 0.25, 7)
	if err != nil {
		return nil, err
	}
	return ds.Graph, nil
})

// benchmarkInduce reports what one ensemble worker pays for its first
// sample of a detect: a fresh Scratch draws an S = 0.1 sample under m and
// induces its subgraph. B/op is the scratch the worker grows from empty:
// the arena's parent-sized id remap tables and the sample-sized CSR arrays.
func benchmarkInduce(b *testing.B, m Method) {
	g, err := induceGraph()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleInto(m, g, 0.1, rng, new(Scratch))
	}
}

func BenchmarkInduceRES(b *testing.B) { benchmarkInduce(b, RandomEdge{}) }

func BenchmarkInduceONSMerchant(b *testing.B) {
	benchmarkInduce(b, OneSideNode{Side: bipartite.MerchantSide})
}

func BenchmarkInduceTNS(b *testing.B) { benchmarkInduce(b, TwoSideNode{}) }

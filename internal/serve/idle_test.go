package serve

import (
	"context"
	"runtime"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// TestIdleHeapIndependentOfCores runs the same detects at GOMAXPROCS 1 and
// 8 and compares the live heap once they are done, with the engine and its
// cached votes still alive. An ensemble worker's arena holds two
// parent-sized id remappers (a uint32 stamp and an int32 local id per parent
// user and per parent merchant); the graph is sized so one arena's tables
// are over 2 MB. An engine that kept one arena per worker between requests
// would hold several more of them at 8 cores than at 1.
func TestIdleHeapIndependentOfCores(t *testing.T) {
	const numUsers, numMerchants = 200_000, 100_000
	tables := uint64(8 * (numUsers + numMerchants)) // bytes per arena
	g := stream.New()
	batch := make([]bipartite.Edge, 0, numUsers+2000)
	for u := 0; u < numUsers; u++ {
		batch = append(batch, bipartite.Edge{U: uint32(u), V: uint32(u*7919) % numMerchants})
	}
	for u := 0; u < 40; u++ { // a dense block, so detects find something
		for v := 0; v < 40; v++ {
			batch = append(batch, bipartite.Edge{U: uint32(u), V: uint32(v)})
		}
	}
	g.Append(batch)
	g.Snapshot() // both readings hold the same cached CSR

	idleHeap := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := NewEngine(g, Options{})
		ctx := context.Background()
		for _, p := range []Params{
			{NumSamples: 32, SampleRatio: 0.05, Seed: 1},
			{Sampler: "ONS-merchant", NumSamples: 32, SampleRatio: 0.05, Seed: 2},
		} {
			if _, err := e.Votes(ctx, p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(e)
		return ms.HeapAlloc
	}
	one, eight := idleHeap(1), idleHeap(8)
	diff := max(one, eight) - min(one, eight)
	t.Logf("idle heap: %d B at GOMAXPROCS 1, %d B at 8; one arena's remap tables %d B", one, eight, tables)
	if diff >= tables {
		t.Errorf("idle heap differs by %d B between GOMAXPROCS 1 and 8, want < %d (one arena's parent-sized tables)", diff, tables)
	}
}

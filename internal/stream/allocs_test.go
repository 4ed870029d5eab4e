package stream

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
)

// The tests below pin the stream's allocations per operation, each bound
// at its count on a 64-bit and a 32-bit build. An append on more than one
// shard takes its grouping scratch from a sync.Pool, which every garbage
// collection empties, and how often collections run follows the heap, not
// the code: the first append after one allocates the scratch again. So
// allocsPerRun holds the collector off while it counts, and the tests skip
// under -race, whose sync.Pool drops items at random.

// allocsPerRun is testing.AllocsPerRun with the collector off: the mean
// allocations of f over runs calls after one warm-up call, truncated to an
// integer, at GOMAXPROCS 1.
func allocsPerRun(t *testing.T, runs int, f func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// denseEdges returns the edges of indices [from, from+n): index i's
// product with an odd constant, taken modulo 2^18, is a bijection on 18
// bits, split into a 12-bit user and a 6-bit merchant. No two indices below
// 2^18 collide, and the graph stays at 4,096 users and 64 merchants, so the
// CSR's offset arrays stay small next to its adjacency.
func denseEdges(from, n int) []bipartite.Edge {
	out := make([]bipartite.Edge, n)
	for i := range out {
		h := uint32(from+i) * 0x9E3779B1 & (1<<18 - 1)
		out[i] = bipartite.Edge{U: h >> 6, V: h & 63}
	}
	return out
}

// TestAppendAllocs: an append of 1,024 fresh edges allocates twice, for the
// touched-node history's two endpoint lists, whatever the shard count.
// Nothing is allocated per edge: the dedup sets double as they grow, so
// their regrowth averages under one allocation per append.
func TestAppendAllocs(t *testing.T) {
	const batch, runs = 1024, 64
	for _, shards := range []int{1, 8} {
		g := NewSharded(shards)
		pool := denseEdges(0, (runs+1)*batch)
		next := 0
		allocs := allocsPerRun(t, runs, func() {
			g.Append(pool[next : next+batch])
			next += batch
		})
		if allocs > 2 {
			t.Errorf("shards=%d: an append allocates %v times, want <= 2", shards, allocs)
		}
	}
}

// TestWindowedChurnAllocs: one cycle of a sliding-window stream held at
// 64 Ki live edges on 8 shards: 16 appends of 256 fresh edges, a retire
// pass that drops the oldest past the window, and the deletion-aware delta
// capture. The cycle allocates 226 times, 14.1 per append.
func TestWindowedChurnAllocs(t *testing.T) {
	const (
		window = 1 << 16
		batch  = 256
		cycle  = 16
		runs   = 16
	)
	g := NewSharded(8)
	g.SetWindow(WindowPolicy{MaxEdges: window})
	pool := denseEdges(0, window+(runs+1)*cycle*batch)
	next := 0
	for g.Stats().NumEdges < window {
		g.Append(pool[next : next+batch])
		next += batch
	}
	g.Retire(time.Now())
	g.Snapshot()
	allocs := allocsPerRun(t, runs, func() {
		for i := 0; i < cycle; i++ {
			g.Append(pool[next : next+batch])
			next += batch
		}
		if r := g.Retire(time.Now()); r.Removed != cycle*batch {
			t.Fatalf("retired %d edges, want %d", r.Removed, cycle*batch)
		}
		g.Snapshot()
	})
	if allocs > 226 {
		t.Errorf("a churn cycle allocates %v times, want <= 226", allocs)
	}
}

// TestDeltaCaptureAllocs: appending 64 fresh edges and capturing them as a
// delta allocates the same number of times at |E| = 2^15 as at 2^17: the
// merge into the previous CSR takes no O(|E|) scratch. The count rises
// with the shards that took an edge, each of which starts a pending set.
func TestDeltaCaptureAllocs(t *testing.T) {
	const delta, runs = 64, 16
	for _, c := range []struct{ shards, want int }{{1, 16}, {8, 20}} {
		counts := make(map[int]float64)
		for _, size := range []int{1 << 15, 1 << 17} {
			g := NewSharded(c.shards)
			g.Append(denseEdges(0, size))
			g.Snapshot()
			buf := make([]bipartite.Edge, delta)
			run := 0
			counts[size] = allocsPerRun(t, runs, func() {
				// The same deltas at both sizes: one fresh merchant, and 64
				// users, 8 to each of 8 shards.
				for j := range buf {
					buf[j] = bipartite.Edge{U: uint32(run*delta+j) * 0x9E3779B1 & (1<<12 - 1), V: 64 + uint32(run)}
				}
				run++
				if r := g.Append(buf); r.Added != delta {
					t.Fatalf("delta added %d of %d edges", r.Added, delta)
				}
				g.Snapshot()
			})
			if bs := g.BuildStats(); bs.DeltaBuilds != runs+1 {
				t.Fatalf("delta path used for %d of %d captures", bs.DeltaBuilds, runs+1)
			}
		}
		name := fmt.Sprintf("shards=%d", c.shards)
		if counts[1<<15] != counts[1<<17] {
			t.Errorf("%s: allocations scale with |E|: %v", name, counts)
		}
		if got := counts[1<<17]; got > float64(c.want) {
			t.Errorf("%s: a delta capture allocates %v times, want <= %d", name, got, c.want)
		}
	}
}

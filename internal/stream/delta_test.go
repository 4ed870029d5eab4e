package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
)

func sortedU32(s []uint32) []uint32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

func TestDeltaTracksAppendEndpoints(t *testing.T) {
	g := NewSharded(4)
	v0 := g.Version()
	g.Append([]bipartite.Edge{{U: 1, V: 10}, {U: 2, V: 10}})
	g.Append([]bipartite.Edge{{U: 3, V: 11}})
	d, ok := g.Delta(v0, g.Version())
	if !ok {
		t.Fatal("Delta not answerable over fully-recorded range")
	}
	if got, want := sortedU32(d.Users), []uint32{1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("touched users = %v, want %v", got, want)
	}
	if got, want := sortedU32(d.Merchants), []uint32{10, 11}; !slices.Equal(got, want) {
		t.Fatalf("touched merchants = %v, want %v", got, want)
	}
	if d.Inserts != 3 || d.Deletes != 0 {
		t.Fatalf("inserts/deletes = %d/%d, want 3/0", d.Inserts, d.Deletes)
	}
}

func TestDeltaSubrangeExcludesOutsideCommits(t *testing.T) {
	g := NewSharded(1)
	g.Append([]bipartite.Edge{{U: 1, V: 10}})
	v1 := g.Version()
	g.Append([]bipartite.Edge{{U: 2, V: 11}})
	v2 := g.Version()
	g.Append([]bipartite.Edge{{U: 3, V: 12}})

	d, ok := g.Delta(v1, v2)
	if !ok {
		t.Fatal("Delta not answerable")
	}
	if got, want := sortedU32(d.Users), []uint32{2}; !slices.Equal(got, want) {
		t.Fatalf("touched users = %v, want %v", got, want)
	}
	if d.Inserts != 1 {
		t.Fatalf("inserts = %d, want 1", d.Inserts)
	}
	// Empty range: same from and to.
	d, ok = g.Delta(v2, v2)
	if !ok || len(d.Users) != 0 || len(d.Merchants) != 0 || d.EdgesChanged() != 0 {
		t.Fatalf("empty range delta = %+v ok=%v, want empty/true", d, ok)
	}
	// Inverted range is unanswerable.
	if _, ok := g.Delta(v2, v1); ok {
		t.Fatal("inverted range should be unanswerable")
	}
}

func TestDeltaDuplicateBatchDoesNotCommitButDupEndpointsMayOvermark(t *testing.T) {
	g := NewSharded(2)
	g.Append([]bipartite.Edge{{U: 1, V: 10}})
	v1 := g.Version()
	// A fully-duplicate batch does not bump the version and records nothing.
	g.Append([]bipartite.Edge{{U: 1, V: 10}})
	if g.Version() != v1 {
		t.Fatalf("duplicate batch bumped version to %d", g.Version())
	}
	d, ok := g.Delta(v1, g.Version())
	if !ok || len(d.Users) != 0 {
		t.Fatalf("delta after duplicate-only batch = %+v ok=%v, want empty/true", d, ok)
	}
	// A mixed batch records the full pre-dedup endpoint set (conservative
	// over-marking) but exact insert counts.
	g.Append([]bipartite.Edge{{U: 1, V: 10}, {U: 5, V: 20}})
	d, ok = g.Delta(v1, g.Version())
	if !ok {
		t.Fatal("Delta not answerable")
	}
	if got, want := sortedU32(d.Users), []uint32{1, 5}; !slices.Equal(got, want) {
		t.Fatalf("touched users = %v, want %v", got, want)
	}
	if d.Inserts != 1 {
		t.Fatalf("inserts = %d, want 1 (duplicate excluded)", d.Inserts)
	}
}

func TestDeltaTracksRemovalsAndRetires(t *testing.T) {
	g := NewSharded(4)
	g.SetWindow(WindowPolicy{MaxEdges: 1})
	g.Append([]bipartite.Edge{{U: 1, V: 10}, {U: 2, V: 11}, {U: 3, V: 12}})
	v1 := g.Version()

	g.Remove([]bipartite.Edge{{U: 2, V: 11}})
	d, ok := g.Delta(v1, g.Version())
	if !ok {
		t.Fatal("Delta not answerable")
	}
	if got, want := sortedU32(d.Users), []uint32{2}; !slices.Equal(got, want) {
		t.Fatalf("touched users after Remove = %v, want %v", got, want)
	}
	if d.Inserts != 0 || d.Deletes != 1 {
		t.Fatalf("inserts/deletes = %d/%d, want 0/1", d.Inserts, d.Deletes)
	}

	// A window retire pass is a removal commit like any other.
	v2 := g.Version()
	g.Retire(time.Now())
	d, ok = g.Delta(v2, g.Version())
	if !ok {
		t.Fatal("Delta not answerable after retire")
	}
	if d.Deletes != 1 || len(d.Users) != 1 {
		t.Fatalf("retire delta = %+v, want 1 deleted edge endpoint", d)
	}
}

func TestDeltaEvictionRaisesFloor(t *testing.T) {
	g := NewSharded(1)
	g.SetDeltaHistoryLimit(4)
	v0 := g.Version()
	for i := uint32(0); i < 8; i++ {
		g.Append([]bipartite.Edge{{U: i, V: 100 + i}})
	}
	if _, ok := g.Delta(v0, g.Version()); ok {
		t.Fatal("evicted range should be unanswerable")
	}
	// A recent suffix still inside the budget must remain answerable.
	recent := g.Version() - 1
	d, ok := g.Delta(recent, g.Version())
	if !ok || d.Inserts != 1 {
		t.Fatalf("recent delta = %+v ok=%v, want 1 insert", d, ok)
	}
}

func TestDeltaDisabledTracking(t *testing.T) {
	g := NewSharded(1)
	g.SetDeltaHistoryLimit(0)
	v0 := g.Version()
	g.Append([]bipartite.Edge{{U: 1, V: 10}})
	if _, ok := g.Delta(v0, g.Version()); ok {
		t.Fatal("Delta should be unanswerable with tracking disabled")
	}
}

func TestDeltaResetOnRestoreForceAndReplayHole(t *testing.T) {
	// Restore: the adopted version starts a fresh, queryable history.
	base := NewSharded(1)
	base.Append([]bipartite.Edge{{U: 1, V: 10}, {U: 2, V: 11}})
	snap, ver := base.Snapshot()

	g := NewSharded(2)
	if err := g.RestoreAt(snap, ver, WindowMark{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Delta(0, ver); ok {
		t.Fatal("pre-restore range should be unanswerable")
	}
	g.Append([]bipartite.Edge{{U: 7, V: 70}})
	d, ok := g.Delta(ver, g.Version())
	if !ok || d.Inserts != 1 || !slices.Equal(sortedU32(d.Users), []uint32{7}) {
		t.Fatalf("post-restore delta = %+v ok=%v, want users=[7]", d, ok)
	}

	// AdvanceVersionTo without a jump preserves history; with a jump it
	// clears it.
	g.AdvanceVersionTo(g.Version()) // no-op
	if _, ok := g.Delta(ver, g.Version()); !ok {
		t.Fatal("no-op AdvanceVersionTo should preserve history")
	}
	hole := g.Version() + 5
	g.AdvanceVersionTo(hole)
	if _, ok := g.Delta(ver, g.Version()); ok {
		t.Fatal("replay hole should clear history")
	}
	g.Append([]bipartite.Edge{{U: 8, V: 80}})
	if d, ok := g.Delta(hole, g.Version()); !ok || d.Inserts != 1 {
		t.Fatalf("post-hole delta = %+v ok=%v, want 1 insert", d, ok)
	}

	// ForceVersionTo (epoch resync) rewinds: old ranges die, the adopted
	// timeline is queryable from the forced version even though it is lower.
	low := uint64(3)
	g.ForceVersionTo(low)
	if _, ok := g.Delta(hole, hole+1); ok {
		t.Fatal("abandoned-timeline range should be unanswerable")
	}
	g.Append([]bipartite.Edge{{U: 9, V: 90}})
	if d, ok := g.Delta(low, g.Version()); !ok || d.Inserts != 1 {
		t.Fatalf("post-rewind delta = %+v ok=%v, want 1 insert", d, ok)
	}
}

func TestDeltaConcurrentAppends(t *testing.T) {
	g := NewSharded(4)
	v0 := g.Version()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				u := uint32(w*1000 + i)
				g.Append([]bipartite.Edge{{U: u, V: u % 37}})
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	d, ok := g.Delta(v0, g.Version())
	if !ok {
		t.Fatal("Delta not answerable")
	}
	if d.Inserts != 400 {
		t.Fatalf("inserts = %d, want 400", d.Inserts)
	}
	if got := len(sortedU32(d.Users)); got != 400 {
		t.Fatalf("distinct touched users = %d, want 400", got)
	}
}

// TestDeltaMatchesNaiveModelAcrossEvictions drives many commits through a
// small history budget, so records are evicted on most appends and the head
// offset wraps past its compaction point many times, and checks every Delta
// against a model that keeps all records and recomputes the retained suffix
// from scratch: the longest suffix whose endpoint total fits the limit.
func TestDeltaMatchesNaiveModelAcrossEvictions(t *testing.T) {
	type rec struct {
		ver        uint64
		users, mer []uint32
		inserts    int
	}
	for _, limit := range []int{4, 64} {
		t.Run(fmt.Sprint("limit=", limit), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(limit)))
			g := NewSharded(2)
			g.SetDeltaHistoryLimit(limit)
			floor0 := g.Version()
			var all []rec
			model := func(from, to uint64) (Delta, bool) {
				floor, nodes, keep := floor0, 0, len(all)
				for keep > 0 && nodes+2*len(all[keep-1].users) <= limit {
					keep--
					nodes += 2 * len(all[keep].users)
				}
				if keep > 0 {
					floor = max(floor, all[keep-1].ver)
				}
				if from > to || from < floor {
					return Delta{}, false
				}
				var d Delta
				for _, r := range all[keep:] {
					if r.ver > from && r.ver <= to {
						d.Users = append(d.Users, r.users...)
						d.Merchants = append(d.Merchants, r.mer...)
						d.Inserts += r.inserts
					}
				}
				return d, true
			}
			next := uint32(0)
			for step := 0; step < 600; step++ {
				// Mostly single edges, sometimes a batch past the whole budget;
				// a repeated edge inside a batch is recorded but not inserted.
				n := 1
				if rng.Intn(8) == 0 {
					n = 1 + rng.Intn(limit)
				}
				batch := make([]bipartite.Edge, n)
				for i := range batch {
					batch[i] = bipartite.Edge{U: next, V: next % 13}
					next++
				}
				if n > 1 && rng.Intn(2) == 0 {
					batch[n-1] = batch[0]
				}
				res := g.Append(batch)
				r := rec{ver: res.Version, inserts: res.Added}
				for _, e := range batch {
					r.users = append(r.users, e.U)
					r.mer = append(r.mer, e.V)
				}
				all = append(all, r)
				v := g.Version()
				for from := uint64(0); from <= v; from++ {
					to := from + uint64(rng.Int63n(int64(v-from)+1))
					for _, to := range []uint64{to, v} {
						got, gok := g.Delta(from, to)
						want, wok := model(from, to)
						if gok != wok || !slices.Equal(got.Users, want.Users) || !slices.Equal(got.Merchants, want.Merchants) ||
							got.Inserts != want.Inserts || got.Deletes != 0 {
							t.Fatalf("step %d: Delta(%d, %d) = %+v ok=%v, model %+v ok=%v", step, from, to, got, gok, want, wok)
						}
					}
				}
			}
		})
	}
}

// BenchmarkHistRecordSingleEdge measures one single-edge commit's history
// bookkeeping once the history is full, so every record evicts one.
func BenchmarkHistRecordSingleEdge(b *testing.B) {
	for _, limit := range []int{1 << 12, DefaultDeltaHistoryNodes} {
		b.Run(fmt.Sprint("limit=", limit), func(b *testing.B) {
			g := NewSharded(1)
			g.SetDeltaHistoryLimit(limit)
			edge := []bipartite.Edge{{U: 1, V: 2}}
			ver := uint64(0)
			for ; ver < uint64(limit/2); ver++ {
				g.histRecord(ver+1, edge, 1, 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ver++
				g.histRecord(ver, edge, 1, 0)
			}
		})
	}
}

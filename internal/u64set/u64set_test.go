package u64set

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// Observers and a pre-sizing constructor for the tests; production holds
// a Set by value and only adds, deletes and looks up.

// New returns a set pre-sized to hold at least hint keys without resizing.
func New(hint int) *Set {
	s := &Set{}
	if hint > 0 {
		s.grow(tableFor(hint))
	}
	return s
}

// Bytes returns the resident size of the table backing array — the number
// the dedup-memory benchmark compares against the map implementation.
func (s *Set) Bytes() int { return 8 * cap(s.slots) }

func TestBasicAddHasDelete(t *testing.T) {
	s := New(0)
	if s.Len() != 0 || s.Has(7) {
		t.Fatal("fresh set not empty")
	}
	if !s.Add(7) || s.Add(7) {
		t.Fatal("Add(7) should be new once")
	}
	if !s.Has(7) || s.Len() != 1 {
		t.Fatalf("after Add(7): Has=%v Len=%d", s.Has(7), s.Len())
	}
	if !s.Delete(7) || s.Delete(7) {
		t.Fatal("Delete(7) should succeed exactly once")
	}
	if s.Has(7) || s.Len() != 0 {
		t.Fatal("7 survived deletion")
	}
}

func TestZeroKey(t *testing.T) {
	s := &Set{} // zero value is usable
	if s.Has(0) || s.Delete(0) {
		t.Fatal("empty set claims to hold the zero key")
	}
	if !s.Add(0) || s.Add(0) {
		t.Fatal("Add(0) should be new once")
	}
	if !s.Has(0) || s.Len() != 1 {
		t.Fatal("zero key not tracked")
	}
	s.Add(1)
	if !s.Delete(0) || s.Has(0) || s.Len() != 1 || !s.Has(1) {
		t.Fatal("deleting the zero key disturbed the set")
	}
}

// checkKeys fails unless Keys yields exactly the model's keys, each once.
func checkKeys(t *testing.T, step int, s *Set, model map[uint64]struct{}) {
	t.Helper()
	got := slices.Sorted(s.Keys())
	want := make([]uint64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: Keys = %v, model %v", step, got, want)
	}
}

// TestMatchesMapModel drives the set with a random Add/Delete/Has workload
// and checks every answer against a map — including heavy delete churn over
// a small key space, the access pattern backward-shift deletion must survive.
// Keys is compared with the model after every grow, periodically, and at
// the end; the space includes the zero key.
func TestMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(0)
	model := map[uint64]struct{}{}
	const space = 512 // small space → constant collisions and re-adds
	grows, zeroSeen := 0, false
	for i := 0; i < 200_000; i++ {
		table := len(s.slots)
		k := uint64(rng.Intn(space))
		if rng.Intn(3) == 0 {
			_, had := model[k]
			delete(model, k)
			if got := s.Delete(k); got != had {
				t.Fatalf("step %d: Delete(%d) = %v, model had %v", i, k, got, had)
			}
		} else {
			_, had := model[k]
			model[k] = struct{}{}
			if got := s.Add(k); got == had {
				t.Fatalf("step %d: Add(%d) = %v, model had %v", i, k, got, had)
			}
		}
		probe := uint64(rng.Intn(space))
		if _, want := model[probe]; s.Has(probe) != want {
			t.Fatalf("step %d: Has(%d) = %v, want %v", i, probe, s.Has(probe), want)
		}
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", i, s.Len(), len(model))
		}
		_, zero := model[0]
		zeroSeen = zeroSeen || zero
		if len(s.slots) != table {
			grows++
			checkKeys(t, i, s, model)
		} else if i%1000 == 0 {
			checkKeys(t, i, s, model)
		}
	}
	for k := range model {
		if !s.Has(k) {
			t.Fatalf("final sweep: missing %d", k)
		}
	}
	checkKeys(t, -1, s, model)
	if grows == 0 || !zeroSeen {
		t.Fatalf("the workload never grew the table (%d grows) or never held the zero key (%v)", grows, zeroSeen)
	}
}

// TestGrowPreservesKeys fills past several resize thresholds with keys that
// stress the hash (dense sequential, high-bit-only, and mixed edge-shaped
// keys), then verifies membership and full deletion.
func TestGrowPreservesKeys(t *testing.T) {
	s := New(0)
	keys := make([]uint64, 0, 30_000)
	for i := 0; i < 10_000; i++ {
		keys = append(keys, uint64(i))                 // dense low
		keys = append(keys, uint64(i)<<32)             // dense high (user<<32|0)
		keys = append(keys, uint64(i)<<32|uint64(i*7)) // edge-shaped
	}
	for _, k := range keys {
		s.Add(k)
	}
	want := map[uint64]struct{}{}
	for _, k := range keys {
		want[k] = struct{}{}
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for k := range want {
		if !s.Has(k) {
			t.Fatalf("lost key %#x across growth", k)
		}
	}
	for k := range want {
		if !s.Delete(k) {
			t.Fatalf("Delete(%#x) failed", k)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", s.Len())
	}
}

func TestNewHintAvoidsResize(t *testing.T) {
	s := New(10_000)
	before := s.Bytes()
	for i := uint64(0); i < 10_000; i++ {
		s.Add(i)
	}
	if s.Bytes() != before {
		t.Fatalf("pre-sized set resized: %d -> %d bytes", before, s.Bytes())
	}
}

// heapInUse returns the live heap after a double GC — coarse, but stable
// enough to compare two dedup-set implementations holding a million keys.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// edgeKeys returns n deduplicated edge-shaped keys (user<<32 | merchant).
func edgeKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(7))
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(rng.Intn(1<<20))<<32 | uint64(rng.Intn(1<<18))
	}
	return out
}

// BenchmarkDedupResidentBytes is the before/after memory comparison behind
// replacing the stream shards' map dedup sets: it loads one million edge
// keys into each implementation and reports resident bytes per key. Run with
// -benchtime=1x; the numbers are memory metrics, not timings.
func BenchmarkDedupResidentBytes(b *testing.B) {
	keys := edgeKeys(1 << 20)
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heapInUse()
			m := make(map[uint64]struct{})
			for _, k := range keys {
				m[k] = struct{}{}
			}
			bytes := float64(heapInUse() - base)
			b.ReportMetric(bytes/float64(len(m)), "bytes/key")
			runtime.KeepAlive(m)
		}
	})
	b.Run("u64set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base := heapInUse()
			s := New(0)
			for _, k := range keys {
				s.Add(k)
			}
			bytes := float64(heapInUse() - base)
			b.ReportMetric(bytes/float64(s.Len()), "bytes/key")
			runtime.KeepAlive(s)
		}
	})
}

// BenchmarkChurn measures steady-state Add+Delete throughput — the expiry
// workload — at a stable size.
func BenchmarkChurn(b *testing.B) {
	keys := edgeKeys(1 << 16)
	s := New(len(keys))
	for _, k := range keys {
		s.Add(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		s.Delete(k)
		s.Add(k)
	}
}

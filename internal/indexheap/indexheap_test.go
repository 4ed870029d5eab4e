package indexheap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	h := New(5)
	prios := []float64{3, 1, 4, 1.5, 0.5}
	for id, p := range prios {
		h.Push(id, p)
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d, want 5", h.Len())
	}
	wantOrder := []int{4, 1, 3, 0, 2}
	for _, want := range wantOrder {
		id, _ := h.Pop()
		if id != want {
			t.Fatalf("Pop = %d, want %d", id, want)
		}
	}
	if h.Len() != 0 {
		t.Errorf("Len after drain = %d", h.Len())
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	h := New(2)
	mustPanic("Pop empty", func() { h.Pop() })
	mustPanic("Peek empty", func() { h.Peek() })
	h.Push(0, 1)
	mustPanic("double Push", func() { h.Push(0, 2) })
}

func TestPropertyHeapSort(t *testing.T) {
	// Pushing random priorities and draining must yield sorted order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		h := New(n)
		prios := make([]float64, n)
		for i := range prios {
			prios[i] = rng.NormFloat64()
			h.Push(i, prios[i])
		}
		var got []float64
		for h.Len() > 0 {
			_, p := h.Pop()
			got = append(got, p)
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPropertyRandomOps(t *testing.T) {
	// A random interleaving of Push/AddIfPresent/Pop keeps the heap
	// consistent with a naive model. Coarse priorities and deltas force
	// ties, so every pop must also be the model's lowest id among equals.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		h := New(n)
		model := make(map[int]float64)
		for step := 0; step < 500; step++ {
			id := rng.Intn(n)
			switch op := rng.Intn(3); op {
			case 0: // push
				if _, ok := model[id]; !ok {
					p := float64(rng.Intn(8))
					model[id] = p
					h.Push(id, p)
				}
			case 1: // change the priority of a queued id, or of an absent one
				delta := float64(rng.Intn(5) - 2)
				_, ok := model[id]
				if h.AddIfPresent(id, delta) != ok {
					return false
				}
				if ok {
					model[id] += delta
				}
			case 2: // pop
				if len(model) > 0 {
					want := -1
					for mid, mp := range model {
						if want < 0 || mp < model[want] || mp == model[want] && mid < want {
							want = mid
						}
					}
					got, p := h.Pop()
					if got != want || p != model[want] {
						return false
					}
					delete(model, got)
				}
			}
			if h.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestResetReuse(t *testing.T) {
	h := New(4)
	h.Push(0, 3)
	h.Push(3, 1)
	// Reset to a larger capacity: old members must be gone, new ids usable.
	h.Reset(8)
	if h.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", h.Len())
	}
	for id := 0; id < 8; id++ {
		if h.AddIfPresent(id, 1) {
			t.Errorf("id %d survived Reset", id)
		}
	}
	h.Push(7, 2)
	h.Push(3, 1)
	h.Push(0, 5)
	if id, p := h.Pop(); id != 3 || p != 1 {
		t.Errorf("Pop = (%d,%g), want (3,1)", id, p)
	}
	// Shrink: capacity stays, semantics follow the new bound.
	h.Reset(2)
	h.Push(1, 9)
	if id, _ := h.Pop(); id != 1 {
		t.Errorf("Pop after shrink = %d, want 1", id)
	}
}

func TestAddIfPresent(t *testing.T) {
	h := New(3)
	h.Push(0, 5)
	h.Push(1, 6)
	if !h.AddIfPresent(1, -4) {
		t.Fatal("AddIfPresent(queued id) = false")
	}
	if id, p := h.Peek(); id != 1 || p != 2 {
		t.Fatalf("Peek = (%d,%g), want (1,2)", id, p)
	}
	if h.AddIfPresent(2, 1) {
		t.Fatal("AddIfPresent(absent id) = true")
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d after AddIfPresent(absent id), want 2", h.Len())
	}
}

func TestZeroValueReset(t *testing.T) {
	var h Heap
	h.Reset(3)
	h.Push(2, 1.5)
	if id, p := h.Peek(); id != 2 || p != 1.5 {
		t.Errorf("Peek = (%d,%g), want (2,1.5)", id, p)
	}
}

// Package indexheap provides an indexed min-heap over the node ids of a
// graph, supporting O(log n) push, pop and change-key by id. It is the
// "minimal heap" behind FDET's O(kˆ|E| log(|U|+|V|)) bound (§IV-B): greedy
// peeling repeatedly pops the minimum-priority node and lowers the
// priorities of its neighbours. The FDET peeler pops unchanged nodes from a
// presorted run in O(1) and keeps only the nodes whose priority changed in
// this heap, so its API is what that decrease-heap calls: Reset, Push, Peek,
// Pop and AddIfPresent.
//
// The heap is 4-ary with (priority, id) stored inline in the heap slots: a
// sift compares against up to four children that share one or two cache
// lines, and never chases a pos/prio indirection per comparison the way the
// classic ids[]+prio[] layout does. Sifts move slots hole-style (one write
// per level instead of a swap's two). Ties are broken toward the lower id,
// making the pop sequence a total order on (priority, id) — the property
// the FDET peeler's determinism contract is built on.
package indexheap

// slot is one heap entry. Keeping the priority next to the id means a
// comparison touches only the heap array.
type slot struct {
	prio float64
	id   int32
}

// Heap is an indexed min-heap of float64 priorities keyed by dense int ids in
// [0, capacity). Reset a zero value before use.
type Heap struct {
	slots []slot
	pos   []int32 // pos[id] = index in slots, or -1 if absent
	count int
}

const absent = int32(-1)

// Reset empties the heap and prepares it for ids in [0, capacity), growing
// storage only when the capacity exceeds anything seen before. It costs
// O(capacity) but allocates nothing once warm, which is what lets a peeler
// run round after round without heap churn.
func (h *Heap) Reset(capacity int) {
	if cap(h.pos) < capacity {
		h.pos = make([]int32, capacity)
		h.slots = make([]slot, 0, capacity)
	}
	h.pos = h.pos[:capacity]
	h.slots = h.slots[:0]
	h.count = 0
	for i := range h.pos {
		h.pos[i] = absent
	}
}

// Len returns the number of ids currently in the heap.
func (h *Heap) Len() int { return h.count }

// Push inserts id with the given priority. It panics if id is already
// present.
func (h *Heap) Push(id int, priority float64) {
	if h.pos[id] != absent {
		panic("indexheap: Push of id already in heap")
	}
	h.slots = append(h.slots, slot{prio: priority, id: int32(id)})
	h.count++
	h.up(h.count - 1)
}

// Pop removes and returns the id with minimum priority and that priority.
// Ties are broken toward the lower id. It panics on an empty heap.
func (h *Heap) Pop() (id int, priority float64) {
	if h.count == 0 {
		panic("indexheap: Pop from empty heap")
	}
	top := h.slots[0]
	h.count--
	last := h.slots[h.count]
	h.slots = h.slots[:h.count]
	h.pos[top.id] = absent
	if h.count > 0 {
		h.slots[0] = last
		h.pos[last.id] = 0
		h.down(0)
	}
	return int(top.id), top.prio
}

// Peek returns the minimum id and priority without removing it.
func (h *Heap) Peek() (id int, priority float64) {
	if h.count == 0 {
		panic("indexheap: Peek of empty heap")
	}
	return int(h.slots[0].id), h.slots[0].prio
}

// AddIfPresent increments the priority of id by delta (which may be
// negative) when id is in the heap, and reports whether it was.
func (h *Heap) AddIfPresent(id int, delta float64) bool {
	i := h.pos[id]
	if i == absent {
		return false
	}
	h.addAt(int(i), delta)
	return true
}

func (h *Heap) addAt(i int, delta float64) {
	h.slots[i].prio += delta
	switch {
	case delta < 0:
		h.up(i)
	case delta > 0:
		h.down(i)
	}
}

// less orders slots by (priority, id); the id tie-break keeps peeling
// deterministic across runs and across queue implementations.
func less(a, b slot) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.id < b.id
}

// up sifts the slot at i toward the root, hole-style: the moving slot is
// held in a register while parents shift down, costing one slot write and
// one pos write per level.
func (h *Heap) up(i int) {
	s := h.slots[i]
	for i > 0 {
		parent := (i - 1) >> 2
		ps := h.slots[parent]
		if !less(s, ps) {
			break
		}
		h.slots[i] = ps
		h.pos[ps.id] = int32(i)
		i = parent
	}
	h.slots[i] = s
	h.pos[s.id] = int32(i)
}

// down sifts the slot at i toward the leaves. The four children occupy
// adjacent slots, so the min-child scan is a sequential read.
func (h *Heap) down(i int) {
	s := h.slots[i]
	n := h.count
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m, ms := c, h.slots[c]
		for j := c + 1; j < end; j++ {
			if js := h.slots[j]; less(js, ms) {
				m, ms = j, js
			}
		}
		if !less(ms, s) {
			break
		}
		h.slots[i] = ms
		h.pos[ms.id] = int32(i)
		i = m
	}
	h.slots[i] = s
	h.pos[s.id] = int32(i)
}

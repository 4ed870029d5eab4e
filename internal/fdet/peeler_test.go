package fdet

import (
	"math"
	"math/rand"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/indexheap"
)

// TestRunOrderIsHeapOrder checks that sorting by orderKey, ties left in id
// order, is the heap's (priority, lowest id) order, on priorities that
// cover both signs, both zeros, denormals and +Inf, each held by several
// interleaved ids. −0 and +0 must share a key, so they tie and break by id.
func TestRunOrderIsHeapOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if orderKey(negZero) != orderKey(0) {
		t.Fatalf("orderKey(-0) = %#x, orderKey(+0) = %#x; they must tie", orderKey(negZero), orderKey(0))
	}
	prios := []float64{-1e16, -1, -5e-324, negZero, 0, 5e-324, 1e-310, 1, 3.3, 1e16, math.Inf(1)}
	const perPrio = 3
	n := len(prios) * perPrio
	prio := make([]float64, n)
	var h indexheap.Heap
	h.Reset(n)
	for i, id := range rand.New(rand.NewSource(1)).Perm(n) {
		prio[id] = prios[i/perPrio]
		h.Push(id, prio[id])
	}

	// Built as deleteAll builds it: ascending ids, then the stable sort.
	run := make([]runEntry, n)
	for id := range run {
		run[id] = runEntry{orderKey(prio[id]), int32(id)}
	}
	var digits [6][1 << radixBits]int32
	run = sortRun(run, make([]runEntry, n), &digits)
	for i, e := range run {
		id, p := h.Pop()
		if int(e.id) != id {
			t.Fatalf("position %d: run has id %d (priority %g), heap pops id %d (priority %g)", i, e.id, prio[e.id], id, p)
		}
	}
}

// byteSource is a rand.Source that replays bytes: Intn(n) on a rand.Rand
// over it returns the next byte modulo n, and 0 once the bytes run out.
type byteSource []byte

func (s *byteSource) Int63() int64 {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int64(b) << 32 // Int31 returns the byte; Int31n takes it mod n
}

func (s *byteSource) Seed(int64) {}

// FuzzPeelOrder runs the peeler and the reference round side by side until
// the graph is empty, comparing every round's deletion order, φ curve,
// block and score bitwise, as TestPeelMatchesReference does on seeded
// graphs. The input decodes as: users (1 + b%48), merchants (1 + b%48), a
// weight palette, one byte per merchant choosing its weight within the
// palette, then up to 256 (user, merchant) edges, two bytes each.
func FuzzPeelOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nu, nm := 1+int(data[0])%48, 1+int(data[1])%48
		pal := weightPalettes[int(data[2])%len(weightPalettes)]
		data = data[3:]
		src := byteSource(data[:min(nm, len(data))])
		data = data[len(src):]
		b := bipartite.NewBuilderSized(nu, nm, 0)
		for i := 0; i+1 < len(data) && i < 2*256; i += 2 {
			b.AddEdge(uint32(int(data[i])%nu), uint32(int(data[i+1])%nm))
		}
		g := b.Build()
		w := pal.gen(g, rand.New(&src))

		ref := &refPeeler{nu: g.NumUsers(), nm: g.NumMerchants(), w: w, edges: g.EdgeList(), dead: make([]bool, g.NumEdges())}
		var p peeler
		p.reset(g, w)
		for round := 0; ; round++ {
			want, wantOK := ref.round()
			blk, ok := p.peelOnce()
			if ok != wantOK || round > g.NumEdges() {
				t.Fatalf("%s round %d of a %d-edge graph: ok = %v, reference %v", pal.name, round, g.NumEdges(), ok, wantOK)
			}
			if !ok {
				return
			}
			if got := trace(p.order, p.phis, p.block(blk)); got != want {
				t.Fatalf("%s round %d: peeler\n%s\nreference\n%s", pal.name, round, got, want)
			}
		}
	})
}

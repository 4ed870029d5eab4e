package fdet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
)

// refPeeler is the naive FDET round the peeler must match bit for bit: no
// heap and no compaction, just a linear argmin over (priority, id) on a
// flat edge list. It performs the peeler's float operations in the peeler's
// order — user priorities and the total summed in canonical edge order,
// float64(deg)*w for merchants, one += -w per deleted neighbour, total -=
// prio per deletion — so any difference is a bug in the structure that
// finds the minimum, never rounding.
type refPeeler struct {
	nu, nm int
	w      []float64
	edges  []bipartite.Edge // canonical (user-major) order
	dead   []bool
}

// trace renders what one round decided. %x prints floats bit for bit (and
// tells -0 from 0), so equal strings mean bitwise-equal rounds.
func trace(order []int32, phis []float64, blk Block) string {
	return fmt.Sprintf("order %v\nphis %x\nblock %v x %v score %x", order, phis, blk.Users, blk.Merchants, blk.Score)
}

// round peels the alive edges once, kills the best block's edges and
// returns the round's trace. Node ids are the peeler's: users 0..nu-1,
// merchants nu..nu+nm-1.
func (r *refPeeler) round() (string, bool) {
	n := r.nu + r.nm
	prio, deg := make([]float64, n), make([]int, n)
	total := 0.0
	for i, e := range r.edges {
		if !r.dead[i] {
			prio[e.U] += r.w[e.V]
			total += r.w[e.V]
			deg[e.U]++
			deg[r.nu+int(e.V)]++
		}
	}
	in := make([]bool, n) // alive and not yet deleted this round
	left := 0
	for id, d := range deg {
		if d > 0 {
			in[id] = true
			left++
			if id >= r.nu {
				prio[id] = float64(d) * r.w[id-r.nu]
			}
		}
	}
	if left == 0 {
		return "", false
	}

	var order []int32
	phis := []float64{total / float64(left)}
	for ; left > 0; left-- {
		min := -1
		for id := range in {
			if in[id] && (min < 0 || prio[id] < prio[min]) {
				min = id // ascending scan: ties stay with the lowest id
			}
		}
		order = append(order, int32(min))
		in[min] = false
		total -= prio[min]
		for i, e := range r.edges {
			u, m := int(e.U), r.nu+int(e.V)
			if r.dead[i] {
				continue
			}
			if u == min && in[m] {
				prio[m] += -r.w[e.V]
			} else if m == min && in[u] {
				prio[u] += -r.w[e.V]
			}
		}
		if left > 1 {
			phis = append(phis, total/float64(left-1))
		} else {
			phis = append(phis, 0)
		}
	}

	bestT := 0 // earliest argmax: the block is what survives bestT deletions
	for t, phi := range phis {
		if phi > phis[bestT] {
			bestT = t
		}
	}
	for _, id := range order[bestT:] {
		in[id] = true
	}
	blk := Block{Score: phis[bestT]}
	for id, member := range in {
		if member && id < r.nu {
			blk.Users = append(blk.Users, uint32(id))
		} else if member {
			blk.Merchants = append(blk.Merchants, uint32(id-r.nu))
		}
	}
	for i, e := range r.edges {
		if in[e.U] && in[r.nu+int(e.V)] {
			r.dead[i] = true
		}
	}
	return trace(order, phis, blk), true
}

// pick draws every merchant's weight from vals.
func pick(vals ...float64) func(*bipartite.Graph, *rand.Rand) []float64 {
	return func(g *bipartite.Graph, rng *rand.Rand) []float64 {
		w := make([]float64, g.NumMerchants())
		for i := range w {
			w[i] = vals[rng.Intn(len(vals))]
		}
		return w
	}
}

// weightPalettes are the merchant-weight vectors the generated check runs
// every graph under; each stresses a different part of the (priority, id)
// order or of the float bookkeeping.
var weightPalettes = []struct {
	name string
	gen  func(*bipartite.Graph, *rand.Rand) []float64
}{
	{"ones", func(g *bipartite.Graph, _ *rand.Rand) []float64 { return density.AvgDegree{}.MerchantWeights(g) }},
	{"column", func(g *bipartite.Graph, _ *rand.Rand) []float64 { return density.Default().MerchantWeights(g) }},
	{"ties", pick(0.5, 1, 2)},
	{"zeros", pick(0, 0, 1)},
	{"negzero", pick(math.Copysign(0, -1), 0, 1)},
	{"denormal", pick(5e-324, 1e-310, 3e-308)},
	{"mixed", pick(1e-30, 1, 3.3, 1e16)},
}

// TestPeelMatchesReference runs the peeler and the reference side by side,
// round after round until the graph is empty, on seeded random graphs under
// every palette, and compares each round's deletion order, φ curve, block
// membership and score bitwise.
func TestPeelMatchesReference(t *testing.T) {
	var p peeler // one peeler for all runs: recycled buffers must not leak
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *bipartite.Graph
		if seed%2 == 0 {
			g, _ = plantedGraph(seed, 10+rng.Intn(30), 10+rng.Intn(30), 20+rng.Intn(120), 1+rng.Intn(2), 3+rng.Intn(3), 3+rng.Intn(3))
		} else { // skewed: a few hub merchants and many degree-1 users
			nu, nm := 20+rng.Intn(40), 3+rng.Intn(8)
			b := bipartite.NewBuilderSized(nu, nm, 0)
			for i, n := 0, nu+rng.Intn(2*nu); i < n; i++ {
				b.AddEdge(uint32(rng.Intn(nu)), uint32(rng.Intn(1+rng.Intn(nm))))
			}
			g = b.Build()
		}
		for _, pal := range weightPalettes {
			w := pal.gen(g, rng)
			ref := &refPeeler{nu: g.NumUsers(), nm: g.NumMerchants(), w: w, edges: g.EdgeList(), dead: make([]bool, g.NumEdges())}
			p.reset(g, w)
			for round := 0; ; round++ {
				want, wantOK := ref.round()
				blk, ok := p.peelOnce()
				if ok != wantOK || round > g.NumEdges() {
					t.Fatalf("seed %d %s round %d of a %d-edge graph: ok = %v, reference %v", seed, pal.name, round, g.NumEdges(), ok, wantOK)
				}
				if !ok {
					break
				}
				if got := trace(p.order, p.phis, p.block(blk)); got != want {
					t.Fatalf("seed %d %s round %d: peeler\n%s\nreference\n%s", seed, pal.name, round, got, want)
				}
			}
		}
	}
}

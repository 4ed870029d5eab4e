package bipartite

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// graphsIdentical reports whether two graphs have byte-identical CSR arrays.
// Both directions are compared so a desync between them cannot hide.
func graphsIdentical(a, b *Graph) bool {
	return reflect.DeepEqual(a.userOff, b.userOff) &&
		reflect.DeepEqual(a.userAdj, b.userAdj) &&
		reflect.DeepEqual(a.merchOff, b.merchOff) &&
		reflect.DeepEqual(a.merchAdj, b.merchAdj)
}

// layouts are the merchant-side layouts extendDelta picks between, by its
// denominator: ExtendDelta's own choice, always merge, always transpose.
var layouts = []struct {
	name  string
	denom int
}{{"auto", transposeDenominator}, {"merge", 0}, {"transpose", math.MaxInt}}

func mustFromEdges(t *testing.T, nu, nm int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(nu, nm, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExtendMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	base := make([]Edge, 0, 600)
	for i := 0; i < 600; i++ {
		base = append(base, Edge{U: uint32(rng.Intn(80)), V: uint32(rng.Intn(60))})
	}
	prev := mustFromEdges(t, 80, 60, base)

	cases := []struct {
		name  string
		delta []Edge
	}{
		{"empty", nil},
		{"single new", []Edge{{U: 3, V: 59}}},
		{"new user row beyond prev", []Edge{{U: 200, V: 5}, {U: 200, V: 3}}},
		{"new merchant column beyond prev", []Edge{{U: 0, V: 300}}},
		{"duplicate of prev only", []Edge{base[0], base[1]}},
		{"duplicates within delta", []Edge{{U: 90, V: 7}, {U: 90, V: 7}, {U: 90, V: 2}}},
		{"mixed", append([]Edge{{U: 79, V: 59}, {U: 0, V: 0}, {U: 150, V: 90}, {U: 150, V: 90}}, base[10:20]...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NewExtendBuilder().ExtendDelta(prev, tc.delta, nil, 0, 0)
			if err := got.Validate(); err != nil {
				t.Fatalf("extended graph invalid: %v", err)
			}
			union := append(append([]Edge(nil), base...), tc.delta...)
			want := mustFromEdges(t, got.NumUsers(), got.NumMerchants(), union)
			if !graphsIdentical(got, want) {
				t.Fatalf("extend diverged from full build:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestExtendChained grows a graph through many random delta rounds on one
// reused builder and checks every intermediate result against a from-scratch
// build — the exact access pattern of the streaming snapshot path.
func TestExtendChained(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewExtendBuilder()
	var all []Edge
	cur := NewExtendBuilder().ExtendDelta(nil, nil, nil, 0, 0)
	for round := 0; round < 30; round++ {
		delta := make([]Edge, 0, 40)
		for i := 0; i < 1+rng.Intn(40); i++ {
			delta = append(delta, Edge{U: uint32(rng.Intn(120)), V: uint32(rng.Intn(90))})
		}
		cur = b.ExtendDelta(cur, delta, nil, 0, 0)
		all = append(all, delta...)
		if err := cur.Validate(); err != nil {
			t.Fatalf("round %d: invalid: %v", round, err)
		}
		want := mustFromEdges(t, cur.NumUsers(), cur.NumMerchants(), all)
		if !graphsIdentical(cur, want) {
			t.Fatalf("round %d: extend diverged from full build", round)
		}
	}
	if cur.NumEdges() == 0 {
		t.Fatal("chain produced an empty graph")
	}
}

func TestExtendRaisesDeclaredSizes(t *testing.T) {
	g := NewExtendBuilder().ExtendDelta(nil, []Edge{{U: 5, V: 9}}, nil, 100, 200)
	if g.NumUsers() != 100 || g.NumMerchants() != 200 {
		t.Fatalf("declared sizes not honoured: %v", g)
	}
	if !g.HasEdge(5, 9) {
		t.Fatal("edge missing")
	}
}

// applyDelta computes (edges \ deletes) ∪ inserts as a plain edge list — the
// reference semantics ExtendDelta must reproduce.
func applyDelta(edges, inserts, deletes []Edge) []Edge {
	set := make(map[Edge]struct{}, len(edges)+len(inserts))
	for _, e := range edges {
		set[e] = struct{}{}
	}
	for _, e := range deletes {
		delete(set, e)
	}
	for _, e := range inserts {
		set[e] = struct{}{}
	}
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	return out
}

func TestExtendDeltaMatchesFullBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	base := make([]Edge, 0, 600)
	for i := 0; i < 600; i++ {
		base = append(base, Edge{U: uint32(rng.Intn(80)), V: uint32(rng.Intn(60))})
	}
	prev := mustFromEdges(t, 80, 60, base)

	cases := []struct {
		name             string
		inserts, deletes []Edge
	}{
		{"delete one", nil, base[:1]},
		{"delete run in one row", nil, base[10:30]},
		{"delete absent edge is a no-op", nil, []Edge{{U: 79, V: 59}, {U: 500, V: 500}}},
		{"delete whole row empties it", nil, rowEdges(prev, 0)},
		{"delete and reinsert same edge", base[:5], base[:5]},
		{"insert and delete disjoint", []Edge{{U: 90, V: 7}, {U: 0, V: 59}}, base[40:60]},
		{"duplicate deletes", nil, append(append([]Edge(nil), base[:3]...), base[:3]...)},
		{"everything at once", append([]Edge{{U: 200, V: 90}, {U: 0, V: 0}}, base[100:110]...),
			append(append([]Edge(nil), base[:50]...), Edge{U: 300, V: 2})},
		{"delete all edges", nil, base},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, l := range layouts {
				got := NewExtendBuilder().extendDelta(prev, tc.inserts, tc.deletes, 0, 0, l.denom)
				if err := got.Validate(); err != nil {
					t.Fatalf("%s: delta-extended graph invalid: %v", l.name, err)
				}
				want := mustFromEdges(t, got.NumUsers(), got.NumMerchants(), applyDelta(base, tc.inserts, tc.deletes))
				if !graphsIdentical(got, want) {
					t.Fatalf("%s: delta extend diverged from full build over the surviving set:\n got %v\nwant %v", l.name, got, want)
				}
			}
		})
	}
}

// rowEdges returns every edge of user u in g.
func rowEdges(g *Graph, u uint32) []Edge {
	out := make([]Edge, 0, g.UserDegree(u))
	for _, v := range g.UserNeighbors(u) {
		out = append(out, Edge{U: u, V: v})
	}
	return out
}

// TestExtendDeltaChained churns a graph through random insert+delete rounds
// on one reused builder — the windowed streaming access pattern — checking
// every intermediate CSR byte-for-byte against a from-scratch build of the
// surviving edge set, under each merchant-side layout.
func TestExtendDeltaChained(t *testing.T) {
	for _, l := range layouts {
		extendDeltaChained(t, l.name, l.denom)
	}
}

func extendDeltaChained(t *testing.T, layout string, denom int) {
	rng := rand.New(rand.NewSource(29))
	b := NewExtendBuilder()
	live := map[Edge]struct{}{}
	cur := NewExtendBuilder().ExtendDelta(nil, nil, nil, 0, 0)
	for round := 0; round < 40; round++ {
		inserts := make([]Edge, 0, 40)
		for i := 0; i < 1+rng.Intn(40); i++ {
			inserts = append(inserts, Edge{U: uint32(rng.Intn(120)), V: uint32(rng.Intn(90))})
		}
		// Delete a random sample of the live set (plus the occasional absent
		// edge, which must be ignored).
		var deletes []Edge
		for e := range live {
			if rng.Intn(4) == 0 {
				deletes = append(deletes, e)
			}
		}
		if rng.Intn(2) == 0 {
			deletes = append(deletes, Edge{U: 999, V: 999})
		}
		// The surviving-set model mirrors ExtendDelta's semantics: deletes
		// first, inserts win.
		for _, e := range deletes {
			delete(live, e)
		}
		for _, e := range inserts {
			live[e] = struct{}{}
		}
		cur = b.extendDelta(cur, inserts, deletes, 0, 0, denom)
		if err := cur.Validate(); err != nil {
			t.Fatalf("%s round %d: invalid: %v", layout, round, err)
		}
		surviving := make([]Edge, 0, len(live))
		for e := range live {
			surviving = append(surviving, e)
		}
		want := mustFromEdges(t, cur.NumUsers(), cur.NumMerchants(), surviving)
		if !graphsIdentical(cur, want) {
			t.Fatalf("%s round %d: delta extend diverged from full build", layout, round)
		}
		if cur.NumEdges() != len(live) {
			t.Fatalf("%s round %d: %d edges, model has %d", layout, round, cur.NumEdges(), len(live))
		}
	}
}

// TestExtendAllocsIndependentOfGraphSize pins the delta path's allocation
// contract: for a fixed delta, a warm builder allocates the same number of
// times no matter how large the base graph is (the four output arrays plus
// nothing per |E|), whether the delta only inserts or also deletes.
func TestExtendAllocsIndependentOfGraphSize(t *testing.T) {
	for _, c := range []struct {
		name    string
		inserts []Edge
		deletes func(prev *Graph) []Edge
	}{
		{"inserts", []Edge{{U: 1, V: 2}, {U: 3, V: 4}, {U: 5, V: 6}, {U: 7, V: 8}}, func(*Graph) []Edge { return nil }},
		{"deletes", []Edge{{U: 1, V: 2}, {U: 3, V: 4}}, func(prev *Graph) []Edge {
			return []Edge{prev.EdgeAt(0), prev.EdgeAt(prev.NumEdges() - 1)}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			counts := make(map[int]float64)
			for _, sz := range []int{1 << 12, 1 << 15} {
				rng := rand.New(rand.NewSource(3))
				edges := make([]Edge, 0, sz)
				for i := 0; i < sz; i++ {
					edges = append(edges, Edge{U: uint32(rng.Intn(sz / 8)), V: uint32(rng.Intn(sz / 8))})
				}
				prev := mustFromEdges(t, sz/8, sz/8, edges)
				b := NewExtendBuilder()
				deletes := c.deletes(prev)
				counts[sz] = testing.AllocsPerRun(10, func() {
					b.ExtendDelta(prev, c.inserts, deletes, 0, 0)
				})
			}
			if counts[1<<12] != counts[1<<15] {
				t.Errorf("allocs/op scales with |E|: %v", counts)
			}
			if counts[1<<15] > 8 {
				t.Errorf("delta extend allocates %v times, want <= 8", counts[1<<15])
			}
		})
	}
}

// TestExtendReleasesLargeScratch pins the builder's scratch rule: a delta of
// 1 M edges (every edge of a 512 Ki-edge graph deleted, as many fresh ones
// inserted) grows all four sort buffers past MaxKeptScratch, and the build
// releases every one of them; a small build keeps its buffers for reuse.
func TestExtendReleasesLargeScratch(t *testing.T) {
	const n = 1 << 19
	old := make([]Edge, n)
	fresh := make([]Edge, n)
	for i := range old {
		old[i] = Edge{U: uint32(i >> 3), V: uint32(i & 7)}
		fresh[i] = Edge{U: uint32(i >> 3), V: 8 + uint32(i&7)}
	}
	prev := mustFromEdges(t, n>>3, 8, old)
	b := NewExtendBuilder()
	got := b.ExtendDelta(prev, fresh, old, 0, 0)
	if got.NumEdges() != n {
		t.Fatalf("%d edges after the swap, want %d", got.NumEdges(), n)
	}
	bufs := map[string][]Edge{"ud": b.ud, "dd": b.dd, "vd": b.vd, "vdel": b.vdel}
	for name, buf := range bufs {
		if cap(buf) > MaxKeptScratch {
			t.Errorf("after a 1 M-edge delta the builder keeps %s at capacity %d, want <= %d", name, cap(buf), MaxKeptScratch)
		}
	}
	b.ExtendDelta(got, old[:100], fresh[:100], 0, 0)
	if cap(b.ud) == 0 || cap(b.dd) == 0 || cap(b.vd) == 0 || cap(b.vdel) == 0 {
		t.Errorf("a 200-edge delta released its buffers: ud %d, dd %d, vd %d, vdel %d",
			cap(b.ud), cap(b.dd), cap(b.vd), cap(b.vdel))
	}
}

// FuzzExtendDelta checks ExtendDelta(prev, inserts, deletes), under each
// merchant-side layout, against FromEdges of the resulting edge set, byte
// for byte. The bytes are prev's
// side sizes and the declared sizes, then (list, user, merchant) triples.
// Ids fall on a 16×16 grid, larger than prev's sides, so inserts grow the
// sides and deletes name rows prev lacks, and the short grid makes
// duplicates, deletes of absent edges, re-inserted deletes and empty rows
// common.
func FuzzExtendDelta(f *testing.F) {
	f.Add([]byte{4, 4, 0, 0})
	f.Add([]byte{
		3, 3, 0, 0,
		0, 0, 1, 0, 1, 2, 0, 2, 0, // prev: (0,1) (1,2) (2,0)
		1, 0, 1, 1, 0, 1, // insert (0,1) twice
		2, 1, 2, 2, 1, 2, // delete (1,2) twice
		2, 9, 9, 2, 0, 2, // delete a row past prev, and an absent edge
		1, 2, 0, 2, 2, 0, // insert and delete (2,0)
		1, 12, 14, // grow both sides
	})
	f.Add([]byte{5, 2, 15, 9, 0, 4, 1, 2, 4, 1, 1, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nu, nm := 1+int(data[0]%12), 1+int(data[1]%12)
		declU, declM := int(data[2]%20), int(data[3]%20)
		var prevEdges, ins, dels []Edge
		for b := data[4:]; len(b) >= 3; b = b[3:] {
			e := Edge{U: uint32(b[1] % 16), V: uint32(b[2] % 16)}
			switch b[0] % 3 {
			case 0:
				prevEdges = append(prevEdges, Edge{U: e.U % uint32(nu), V: e.V % uint32(nm)})
			case 1:
				ins = append(ins, e)
			default:
				dels = append(dels, e)
			}
		}
		prev := mustFromEdges(t, nu, nm, prevEdges)
		wantU, wantM := max(nu, declU), max(nm, declM)
		for _, e := range ins {
			wantU, wantM = max(wantU, int(e.U)+1), max(wantM, int(e.V)+1)
		}
		want := csrBytes(t, mustFromEdges(t, wantU, wantM, applyDelta(prevEdges, ins, dels)))
		for _, l := range layouts {
			got := NewExtendBuilder().extendDelta(prev, ins, dels, declU, declM, l.denom)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s: merged graph invalid: %v", l.name, err)
			}
			if !bytes.Equal(csrBytes(t, got), want) {
				t.Fatalf("%s: merge differs from a build of the resulting set: %v", l.name, got)
			}
		}
	})
}

func csrBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

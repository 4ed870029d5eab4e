package bipartite

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSideHelpers(t *testing.T) {
	if UserSide.String() != "user" || MerchantSide.String() != "merchant" {
		t.Errorf("Side.String: %q / %q", UserSide, MerchantSide)
	}
	if Side(99).String() != "invalid-side" {
		t.Errorf("invalid side String = %q", Side(99))
	}
}

func TestAvgDegree(t *testing.T) {
	g := smallGraph(t)
	if got, want := g.AvgDegree(UserSide), 5.0/3.0; got != want {
		t.Errorf("AvgDegree(user) = %g, want %g", got, want)
	}
	if got, want := g.AvgDegree(MerchantSide), 5.0/3.0; got != want {
		t.Errorf("AvgDegree(merchant) = %g, want %g", got, want)
	}
	empty := NewBuilder().Build()
	if empty.AvgDegree(UserSide) != 0 {
		t.Error("AvgDegree on empty graph != 0")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := smallGraph(t)
	hist := g.DegreeHistogram(MerchantSide) // degrees 1, 3, 1
	want := []int{0, 2, 0, 1}
	if len(hist) != len(want) {
		t.Fatalf("hist len = %d, want %d", len(hist), len(want))
	}
	for q, w := range want {
		if hist[q] != w {
			t.Errorf("hist[%d] = %d, want %d", q, hist[q], w)
		}
	}
}

func TestPropertyHistogramSums(t *testing.T) {
	// Σ_q fD(q) = n and Σ_q q·fD(q) = |E|.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 1+rng.Intn(30), 1+rng.Intn(30)
		g, err := FromEdges(nu, nm, randomEdges(rng, nu, nm, rng.Intn(200)))
		if err != nil {
			return false
		}
		for _, side := range []Side{UserSide, MerchantSide} {
			hist := g.DegreeHistogram(side)
			n, e := 0, 0
			for q, c := range hist {
				n += c
				e += q * c
			}
			if n != g.NumNodesOn(side) || e != g.NumEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDegreeQuantile(t *testing.T) {
	g := smallGraph(t)
	if got := g.DegreeQuantile(MerchantSide, 0); got != 1 {
		t.Errorf("q0 = %d, want 1", got)
	}
	if got := g.DegreeQuantile(MerchantSide, 1); got != 3 {
		t.Errorf("q1 = %d, want 3", got)
	}
	empty := NewBuilder().Build()
	if empty.DegreeQuantile(UserSide, 0.5) != 0 {
		t.Error("quantile on empty side != 0")
	}
}

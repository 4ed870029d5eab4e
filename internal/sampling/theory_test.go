package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

// This file implements the sampling-theory quantities of paper §IV-A1:
// the expected per-degree node counts under node sampling (NS) and edge
// sampling (ES) of Eq. 3, the Lemma 1 crossover degree, and the Theorem 1
// edge-sampling probability that yields an ε-approximation of the density
// metric.

// ExpectedNSByDegree returns E_NS[d_q] = fD(q) · p_v for every degree q,
// where hist[q] = fD(q) is the number of nodes of degree q in the original
// graph and pv is the node-sampling probability.
func ExpectedNSByDegree(hist []int, pv float64) []float64 {
	out := make([]float64, len(hist))
	for q, f := range hist {
		out[q] = float64(f) * pv
	}
	return out
}

// ExpectedESByDegree returns E_ES[d_q] = fD(q) · (1 − (1−p_e)^q) for every
// degree q: under edge sampling a node survives iff at least one of its q
// edges is drawn.
func ExpectedESByDegree(hist []int, pe float64) []float64 {
	out := make([]float64, len(hist))
	for q, f := range hist {
		out[q] = float64(f) * (1 - math.Pow(1-pe, float64(q)))
	}
	return out
}

// CrossoverDegree returns the Lemma 1 threshold log(1−pv)/log(1−pe): for
// degrees strictly above it, edge sampling includes nodes at a higher rate
// than node sampling. Both probabilities must lie in (0, 1).
func CrossoverDegree(pv, pe float64) float64 {
	return math.Log(1-pv) / math.Log(1-pe)
}

// ApproximationEdgeProbability returns the Theorem 1 edge-sampling
// probability p = 3(d+2)·ln(n) / (ε²·c), clamped to (0, 1], under which the
// sampled subgraph's density score is an ε-approximation of the original's
// when the minimum degree is c = Ω(ln n). (The paper's rendering of the
// formula drops the ε² factor typographically; the cited source, Gao et al.
// ICC'16, carries it.) d is the approximation-order parameter of the cited
// theorem, n the number of vertices.
func ApproximationEdgeProbability(n int, d, eps, c float64) float64 {
	if n < 2 || eps <= 0 || c <= 0 {
		return 1
	}
	p := 3 * (d + 2) * math.Log(float64(n)) / (eps * eps * c)
	if p > 1 {
		return 1
	}
	if p <= 0 {
		return 1
	}
	return p
}

func TestExpectedNSByDegree(t *testing.T) {
	hist := []int{0, 10, 5, 2}
	got := ExpectedNSByDegree(hist, 0.3)
	want := []float64{0, 3, 1.5, 0.6}
	for q := range want {
		if math.Abs(got[q]-want[q]) > 1e-12 {
			t.Errorf("E_NS[d_%d] = %g, want %g", q, got[q], want[q])
		}
	}
}

func TestExpectedESByDegree(t *testing.T) {
	hist := []int{0, 10, 0, 0}
	got := ExpectedESByDegree(hist, 0.2)
	// degree-1 nodes survive with probability pe.
	if math.Abs(got[1]-10*0.2) > 1e-12 {
		t.Errorf("E_ES[d_1] = %g, want 2", got[1])
	}
}

func TestLemma1Crossover(t *testing.T) {
	// For q above the crossover, E_ES > E_NS; below it, E_ES < E_NS.
	pv, pe := 0.3, 0.1
	qc := CrossoverDegree(pv, pe)
	if qc <= 0 {
		t.Fatalf("crossover %g not positive", qc)
	}
	hist := make([]int, 60)
	for q := 1; q < 60; q++ {
		hist[q] = 100
	}
	ns := ExpectedNSByDegree(hist, pv)
	es := ExpectedESByDegree(hist, pe)
	for q := 1; q < 60; q++ {
		switch {
		case float64(q) > qc+1e-9 && es[q] <= ns[q]:
			t.Errorf("q=%d > crossover %.2f but E_ES=%g ≤ E_NS=%g", q, qc, es[q], ns[q])
		case float64(q) < qc-1e-9 && es[q] >= ns[q]:
			t.Errorf("q=%d < crossover %.2f but E_ES=%g ≥ E_NS=%g", q, qc, es[q], ns[q])
		}
	}
}

func TestPropertyCrossoverConsistent(t *testing.T) {
	// The sign of E_ES − E_NS must flip exactly at the crossover for any
	// valid probability pair.
	f := func(a, b uint8) bool {
		pv := float64(a%98+1) / 100
		pe := float64(b%98+1) / 100
		qc := CrossoverDegree(pv, pe)
		for _, dq := range []float64{0.5, 2} {
			q := qc * dq
			if q < 0.01 {
				continue
			}
			esRate := 1 - math.Pow(1-pe, q)
			switch {
			case dq > 1 && esRate < pv-1e-9:
				return false
			case dq < 1 && esRate > pv+1e-9:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApproximationEdgeProbability(t *testing.T) {
	p := ApproximationEdgeProbability(100000, 1, 0.5, 50)
	if p <= 0 || p > 1 {
		t.Fatalf("p = %g out of range", p)
	}
	// Larger ε (looser approximation) needs fewer edges.
	loose := ApproximationEdgeProbability(100000, 1, 0.9, 50)
	if loose > p {
		t.Errorf("looser ε needs more edges: %g > %g", loose, p)
	}
	// Degenerate inputs clamp to 1.
	if ApproximationEdgeProbability(1, 1, 0.5, 50) != 1 {
		t.Error("n<2 must clamp to 1")
	}
	if ApproximationEdgeProbability(100, 1, 0, 50) != 1 {
		t.Error("eps=0 must clamp to 1")
	}
}

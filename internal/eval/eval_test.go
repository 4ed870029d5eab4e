package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEvaluateBasics(t *testing.T) {
	l := NewLabels(10, []uint32{0, 1, 2, 3}) // 4 fraud users
	m := Evaluate(l, []uint32{0, 1, 5})      // 2 tp, 1 fp
	if m.TruePositives != 2 || m.FalsePositives != 1 || m.FalseNegatives != 2 {
		t.Fatalf("confusion = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 {
		t.Errorf("P = %g", m.Precision)
	}
	if math.Abs(m.Recall-0.5) > 1e-12 {
		t.Errorf("R = %g", m.Recall)
	}
	wantF1 := 2 * (2.0 / 3) * 0.5 / (2.0/3 + 0.5)
	if math.Abs(m.F1-wantF1) > 1e-12 {
		t.Errorf("F1 = %g, want %g", m.F1, wantF1)
	}
}

func TestEvaluateEmptyDetection(t *testing.T) {
	l := NewLabels(5, []uint32{0})
	m := Evaluate(l, nil)
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Errorf("empty detection: %+v", m)
	}
}

func TestEvaluateNoFraud(t *testing.T) {
	l := NewLabels(5, nil)
	m := Evaluate(l, []uint32{1, 2})
	if m.Recall != 0 || m.Precision != 0 {
		t.Errorf("no-fraud labels: %+v", m)
	}
}

func TestEvaluateDuplicatesAndOutOfRange(t *testing.T) {
	l := NewLabels(3, []uint32{0})
	m := Evaluate(l, []uint32{0, 0, 7})
	if m.TruePositives != 1 || m.FalsePositives != 1 || m.Detected != 2 {
		t.Errorf("dup/out-of-range handling: %+v", m)
	}
}

func TestNewLabelsDedups(t *testing.T) {
	l := NewLabels(4, []uint32{1, 1, 2})
	if l.NumFraud != 2 {
		t.Errorf("NumFraud = %d, want 2", l.NumFraud)
	}
}

func TestPropertyPrecisionRecallBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		var fraud []uint32
		for u := 0; u < n; u++ {
			if rng.Intn(3) == 0 {
				fraud = append(fraud, uint32(u))
			}
		}
		l := NewLabels(n, fraud)
		var det []uint32
		for u := 0; u < n; u++ {
			if rng.Intn(4) == 0 {
				det = append(det, uint32(u))
			}
		}
		m := Evaluate(l, det)
		if m.Precision < 0 || m.Precision > 1 || m.Recall < 0 || m.Recall > 1 || m.F1 < 0 || m.F1 > 1 {
			return false
		}
		// F1 is bounded by both P and R... precisely, min ≤ F1 ≤ max is
		// false in general; but F1 ≤ 2·min(P,R) and F1 ≥ 0 hold.
		if m.F1 > 2*math.Min(m.Precision, m.Recall)+1e-12 {
			return false
		}
		return m.TruePositives+m.FalseNegatives == l.NumFraud
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mkCurve(points ...[3]float64) Curve {
	// each point: {detected, precision, recall}
	var c Curve
	for _, p := range points {
		c = append(c, CurvePoint{Metrics: Metrics{
			Detected:  int(p[0]),
			Precision: p[1],
			Recall:    p[2],
			F1:        f1(p[1], p[2]),
		}})
	}
	return c
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func TestCurveMaxF1(t *testing.T) {
	c := mkCurve([3]float64{10, 0.9, 0.1}, [3]float64{50, 0.5, 0.5}, [3]float64{100, 0.2, 0.8})
	best := c.MaxF1()
	if best.Detected != 50 {
		t.Errorf("MaxF1 at detected=%d, want 50", best.Detected)
	}
	var empty Curve
	if empty.MaxF1().F1 != 0 {
		t.Error("empty curve MaxF1 != 0")
	}
}

func TestCurveAUCPR(t *testing.T) {
	// Rectangle: P=1 from R=0 to R=1 → area 1.
	c := mkCurve([3]float64{1, 1, 0}, [3]float64{2, 1, 1})
	if got := c.AUCPR(); math.Abs(got-1) > 1e-12 {
		t.Errorf("AUCPR = %g, want 1", got)
	}
	if (Curve{}).AUCPR() != 0 {
		t.Error("empty AUCPR != 0")
	}
}

func TestCurveMaxDetectedGap(t *testing.T) {
	c := mkCurve([3]float64{10, 0.5, 0.1}, [3]float64{15, 0.5, 0.2}, [3]float64{100, 0.4, 0.6})
	if got := c.MaxDetectedGap(); got != 85 {
		t.Errorf("MaxDetectedGap = %d, want 85", got)
	}
}

func TestScoredCurve(t *testing.T) {
	// Users 0..3 fraud; scores rank them on top.
	l := NewLabels(8, []uint32{0, 1, 2, 3})
	scores := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	c := ScoredCurve(l, scores, []int{2, 4, 8})
	if len(c) != 3 {
		t.Fatalf("curve len = %d, want 3", len(c))
	}
	if c[0].Precision != 1 || math.Abs(c[0].Recall-0.5) > 1e-12 {
		t.Errorf("point 0 = %+v", c[0].Metrics)
	}
	if c[1].Precision != 1 || c[1].Recall != 1 {
		t.Errorf("point 1 = %+v", c[1].Metrics)
	}
	if math.Abs(c[2].Precision-0.5) > 1e-12 {
		t.Errorf("point 2 = %+v", c[2].Metrics)
	}
}

func TestScoredCurveSkipsNaN(t *testing.T) {
	l := NewLabels(3, []uint32{0})
	c := ScoredCurve(l, []float64{math.NaN(), 1, 2}, []int{2})
	if c[0].Detected != 2 {
		t.Errorf("NaN user included: %+v", c[0].Metrics)
	}
}

func TestScoredCurveDefaultCutoffs(t *testing.T) {
	l := NewLabels(100, []uint32{0})
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i)
	}
	c := ScoredCurve(l, scores, nil)
	if len(c) == 0 {
		t.Fatal("default cutoffs produced empty curve")
	}
	last := c[len(c)-1]
	if last.Detected != 100 {
		t.Errorf("last point detects %d, want 100", last.Detected)
	}
}

func TestPropertyScoredCurveMonotoneRecall(t *testing.T) {
	// Recall never decreases as the cutoff grows.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(80)
		var fraud []uint32
		for u := 0; u < n; u++ {
			if rng.Intn(4) == 0 {
				fraud = append(fraud, uint32(u))
			}
		}
		l := NewLabels(n, fraud)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		c := ScoredCurve(l, scores, nil)
		for i := 1; i < len(c); i++ {
			if c[i].Recall < c[i-1].Recall-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

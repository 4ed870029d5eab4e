// Package eval provides the evaluation machinery of paper §V-B1: Precision,
// Recall and F1 against a blacklist ground truth, plus operating-curve
// utilities (PR curves, F1-vs-detected curves) used to render Figures 3-9.
//
// As the paper notes, Accuracy is meaningless at fraud base rates of a few
// percent, so it is deliberately absent.
package eval

import (
	"fmt"
	"math"
	"sort"
)

// Labels is the ground-truth blacklist: Fraud[u] is true when user u is
// blacklisted. NumFraud caches the positive count.
type Labels struct {
	Fraud    []bool
	NumFraud int
}

// NewLabels builds Labels for numUsers users with the given fraud ids.
func NewLabels(numUsers int, fraudIDs []uint32) *Labels {
	l := &Labels{Fraud: make([]bool, numUsers)}
	for _, u := range fraudIDs {
		if !l.Fraud[u] {
			l.Fraud[u] = true
			l.NumFraud++
		}
	}
	return l
}

// Metrics is one confusion-derived measurement.
type Metrics struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	Precision      float64
	Recall         float64
	F1             float64
	Detected       int // |detected set|
}

// Evaluate scores a detected user set against the labels. Detected ids out
// of range are counted as false positives (they can arise when a detector is
// run on a graph with declared extra nodes).
func Evaluate(l *Labels, detected []uint32) Metrics {
	m := Metrics{Detected: len(detected)}
	seen := make(map[uint32]bool, len(detected))
	for _, u := range detected {
		if seen[u] {
			m.Detected--
			continue
		}
		seen[u] = true
		if int(u) < len(l.Fraud) && l.Fraud[u] {
			m.TruePositives++
		} else {
			m.FalsePositives++
		}
	}
	m.FalseNegatives = l.NumFraud - m.TruePositives
	if m.TruePositives+m.FalsePositives > 0 {
		m.Precision = float64(m.TruePositives) / float64(m.TruePositives+m.FalsePositives)
	}
	if l.NumFraud > 0 {
		m.Recall = float64(m.TruePositives) / float64(l.NumFraud)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// String implements fmt.Stringer.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.4f R=%.4f F1=%.4f (tp=%d fp=%d fn=%d |det|=%d)",
		m.Precision, m.Recall, m.F1, m.TruePositives, m.FalsePositives, m.FalseNegatives, m.Detected)
}

// CurvePoint is one operating point of a detector, e.g. one vote threshold
// or one Fraudar block prefix.
type CurvePoint struct {
	Metrics
}

// Curve is a sequence of operating points, ordered by ascending detected
// count (the x-axis of Figures 4 and 7-9).
type Curve []CurvePoint

// SortByDetected orders the curve by ascending |detected|.
func (c Curve) SortByDetected() {
	sort.SliceStable(c, func(i, j int) bool { return c[i].Detected < c[j].Detected })
}

// SortByRecall orders the curve by ascending recall (PR-curve order).
func (c Curve) SortByRecall() {
	sort.SliceStable(c, func(i, j int) bool { return c[i].Recall < c[j].Recall })
}

// MaxF1 returns the best F1 on the curve, 0 for an empty curve.
func (c Curve) MaxF1() (best CurvePoint) {
	for _, p := range c {
		if p.F1 > best.F1 {
			best = p
		}
	}
	return best
}

// AUCPR returns the area under the precision-recall curve by trapezoidal
// integration after sorting by recall. Curves with fewer than two points
// have zero area.
func (c Curve) AUCPR() float64 {
	if len(c) < 2 {
		return 0
	}
	pts := append(Curve(nil), c...)
	pts.SortByRecall()
	area := 0.0
	for i := 1; i < len(pts); i++ {
		dr := pts[i].Recall - pts[i-1].Recall
		area += dr * (pts[i].Precision + pts[i-1].Precision) / 2
	}
	return area
}

// MaxDetectedGap returns the largest jump in |detected| between consecutive
// points of the curve (after sorting by detected count). This quantifies the
// paper's Figure 4 "polyline vs smooth curve" practicability argument: a
// detector with huge gaps cannot be tuned to a node budget.
func (c Curve) MaxDetectedGap() int {
	if len(c) < 2 {
		return 0
	}
	pts := append(Curve(nil), c...)
	pts.SortByDetected()
	gap := 0
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Detected - pts[i-1].Detected; d > gap {
			gap = d
		}
	}
	return gap
}

// F1Of and PrecisionOf and RecallOf select one metric of a curve point.
func F1Of(m Metrics) float64        { return m.F1 }
func PrecisionOf(m Metrics) float64 { return m.Precision }
func RecallOf(m Metrics) float64    { return m.Recall }

// ScoredCurve builds a curve from per-user anomaly scores by sweeping a
// descending score cutoff: point k detects the k highest-scoring users.
// cutoffs selects the detected-set sizes to report; if nil, a default sweep
// of 50 evenly spaced sizes is used. Ties are broken by user id for
// determinism.
func ScoredCurve(l *Labels, scores []float64, cutoffs []int) Curve {
	type su struct {
		id    uint32
		score float64
	}
	order := make([]su, 0, len(scores))
	for id, s := range scores {
		if !math.IsNaN(s) {
			order = append(order, su{uint32(id), s})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].score != order[j].score {
			return order[i].score > order[j].score
		}
		return order[i].id < order[j].id
	})
	if cutoffs == nil {
		n := len(order)
		for i := 1; i <= 50; i++ {
			cutoffs = append(cutoffs, n*i/50)
		}
	}
	var curve Curve
	detected := make([]uint32, 0, len(order))
	prev := 0
	for _, k := range cutoffs {
		if k > len(order) {
			k = len(order)
		}
		if k < prev {
			continue
		}
		for i := prev; i < k; i++ {
			detected = append(detected, order[i].id)
		}
		prev = k
		m := Evaluate(l, detected)
		curve = append(curve, CurvePoint{Metrics: m})
	}
	return curve
}

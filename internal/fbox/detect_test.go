package fbox

import (
	"math"
	"sort"
)

// DefaultTauPercent is the percentile threshold τ of the FBOX paper's
// recommended operating point (they report τ ∈ {1%, 5%, 10%}).
const DefaultTauPercent = 5.0

// Detect applies the percentile rule: it flags the users whose
// reconstruction ratio falls in the lowest tauPercent of scored users
// (equivalently, suspiciousness in the top tauPercent). tauPercent ≤ 0 uses
// DefaultTauPercent.
func (r Result) Detect(tauPercent float64) []uint32 {
	if tauPercent <= 0 {
		tauPercent = DefaultTauPercent
	}
	type su struct {
		id uint32
		s  float64
	}
	var scored []su
	for u, s := range r.UserScores {
		if !math.IsNaN(s) {
			scored = append(scored, su{uint32(u), s})
		}
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].s != scored[j].s {
			return scored[i].s > scored[j].s
		}
		return scored[i].id < scored[j].id
	})
	n := int(math.Ceil(float64(len(scored)) * tauPercent / 100))
	if n > len(scored) {
		n = len(scored)
	}
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = scored[i].id
	}
	return out
}

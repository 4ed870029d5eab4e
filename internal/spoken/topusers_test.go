package spoken

import "sort"

// TopUsers returns the n highest-scoring users, most suspicious first.
func (r Result) TopUsers(n int) []uint32 {
	return topIDs(r.UserScores, n)
}

func topIDs(scores []float64, n int) []uint32 {
	type su struct {
		id uint32
		s  float64
	}
	order := make([]su, len(scores))
	for i, s := range scores {
		order[i] = su{uint32(i), s}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].s != order[j].s {
			return order[i].s > order[j].s
		}
		return order[i].id < order[j].id // deterministic ties
	})
	if n > len(order) {
		n = len(order)
	}
	out := make([]uint32, n)
	for i := 0; i < n; i++ {
		out[i] = order[i].id
	}
	return out
}

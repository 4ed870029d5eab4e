package serve

import (
	"slices"
	"sort"
)

// equalVotes reports whether two cached vote sets hold the same ids and
// counts on both sides.
func equalVotes(a, b *SparseVotes) bool {
	return a.NumSamples == b.NumSamples &&
		slices.Equal(a.User.IDs, b.User.IDs) && slices.Equal(a.User.Counts, b.User.Counts) &&
		slices.Equal(a.Merchant.IDs, b.Merchant.IDs) && slices.Equal(a.Merchant.Counts, b.Merchant.Counts)
}

// cloneVotes deep-copies a cached vote set, so a test can later check that
// the cached one was never written to.
func cloneVotes(v *SparseVotes) *SparseVotes {
	return &SparseVotes{
		User:       VoteList{IDs: slices.Clone(v.User.IDs), Counts: slices.Clone(v.User.Counts)},
		Merchant:   VoteList{IDs: slices.Clone(v.Merchant.IDs), Counts: slices.Clone(v.Merchant.Counts)},
		NumSamples: v.NumSamples,
	}
}

// rankDense is the reference ranking over a dense vote vector: every node
// with at least minVotes votes, by votes descending then id ascending,
// truncated to top (top <= 0 → all).
func rankDense(votes []int, minVotes, top int) []NodeVotes {
	if minVotes < 1 {
		minVotes = 1
	}
	out := make([]NodeVotes, 0, 64)
	for id, n := range votes {
		if n >= minVotes {
			out = append(out, NodeVotes{ID: uint32(id), Votes: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Votes != out[j].Votes {
			return out[i].Votes > out[j].Votes
		}
		return out[i].ID < out[j].ID
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

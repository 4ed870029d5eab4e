// Package sampling implements the three structural sampling methods for
// bipartite graphs from paper §IV-A: random edge sampling (RES), one-side
// node sampling (ONS) and two-side node sampling (TNS), plus the sampling
// theory helpers behind Eq. 3 and Lemma 1.
//
// All methods draw without replacement, honour a sample ratio S and are
// deterministic given the caller's *rand.Rand, which is what lets the
// ensemble layer fan samples out across goroutines reproducibly.
package sampling

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/scratch"
)

// Method produces one sampled subgraph from a parent graph. Implementations
// must be safe for concurrent use by multiple goroutines as long as each call
// receives its own rng.
type Method interface {
	// Name identifies the method in experiment output, e.g. "RES".
	Name() string
	// Sample draws a subgraph with the given ratio S ∈ (0, 1]. The meaning
	// of S is method-specific: fraction of edges for RES, fraction of the
	// sampled side's nodes for ONS, fraction of each side for TNS.
	Sample(g *bipartite.Graph, ratio float64, rng *rand.Rand) *bipartite.Subgraph
}

// RandomEdge is RES (§IV-A2): a uniform sample of ⌈S·|E|⌉ distinct edges;
// the subgraph contains exactly those edges and their endpoints.
type RandomEdge struct{}

// Name implements Method.
func (RandomEdge) Name() string { return "RES" }

// Sample implements Method.
func (RandomEdge) Sample(g *bipartite.Graph, ratio float64, rng *rand.Rand) *bipartite.Subgraph {
	return SampleInto(RandomEdge{}, g, ratio, rng, new(Scratch)).Detach()
}

// OneSideNode is ONS (§IV-A3): a uniform sample of ⌈S·n⌉ nodes from one
// side; sampled nodes keep all their incident edges. The paper's
// "task-oriented" and "retain topology" principles govern which Side to
// sample — for dense-subgraph detection, sample the side with the higher
// average degree (typically merchants).
type OneSideNode struct {
	Side bipartite.Side
}

// Name implements Method.
func (o OneSideNode) Name() string { return fmt.Sprintf("ONS-%s", o.Side) }

// Sample implements Method.
func (o OneSideNode) Sample(g *bipartite.Graph, ratio float64, rng *rand.Rand) *bipartite.Subgraph {
	return SampleInto(o, g, ratio, rng, new(Scratch)).Detach()
}

// TwoSideNode is TNS (§IV-A4): independent uniform samples of ⌈S·|U|⌉ users
// and ⌈S·|V|⌉ merchants; the subgraph is the cross-section, so its expected
// edge count is ≈ S²·|E| — callers typically enlarge S or the number of
// samples N to compensate, as the paper notes.
type TwoSideNode struct{}

// Name implements Method.
func (TwoSideNode) Name() string { return "TNS" }

// Sample implements Method.
func (TwoSideNode) Sample(g *bipartite.Graph, ratio float64, rng *rand.Rand) *bipartite.Subgraph {
	return SampleInto(TwoSideNode{}, g, ratio, rng, new(Scratch)).Detach()
}

// ByName returns the sampling method with the given name, one of "RES",
// "ONS-user", "ONS-merchant", "TNS".
func ByName(name string) (Method, error) {
	switch name {
	case "RES":
		return RandomEdge{}, nil
	case "ONS-user":
		return OneSideNode{Side: bipartite.UserSide}, nil
	case "ONS-merchant":
		return OneSideNode{Side: bipartite.MerchantSide}, nil
	case "TNS":
		return TwoSideNode{}, nil
	default:
		return nil, fmt.Errorf("sampling: unknown method %q", name)
	}
}

// All returns every sampling method, in the order Figure 5 plots them.
func All() []Method {
	return []Method{
		TwoSideNode{},
		OneSideNode{Side: bipartite.MerchantSide},
		OneSideNode{Side: bipartite.UserSide},
		RandomEdge{},
	}
}

// sampleCount converts a ratio into a draw count, clamped to [0, n]; a
// positive ratio on a non-empty population draws at least one element.
func sampleCount(n int, ratio float64) int {
	if n == 0 || ratio <= 0 {
		return 0
	}
	m := int(math.Ceil(ratio * float64(n)))
	if m > n {
		m = n
	}
	return m
}

// Scratch is the reusable per-worker sampler state: the Floyd draw's
// chosen-set (a bitset with targeted clearing, not a per-call map), the
// index and id buffers, and the subgraph-build arena. One Scratch per
// ensemble worker makes every sampling method allocation-free after
// warm-up.
//
// The subgraph returned by SampleInto aliases the scratch's arena and is
// valid until the next SampleInto with the same scratch. A Scratch must not
// be shared between goroutines without synchronization. The zero value is
// ready to use.
type Scratch struct {
	// chosenBits is the Floyd draw's chosen-set as a bitset (1 bit per
	// population element instead of a 4-byte stamp — a 10M-edge parent
	// costs 1.25MB per arena, not 40MB). The all-zero invariant between
	// draws is restored by targeted clearing: every set bit is recorded in
	// idx, so the next draw clears O(previous m) words, never O(n). The
	// slice's length never shrinks, which keeps every previously set word
	// reachable for that clearing pass.
	chosenBits []uint64
	idx        []int
	uids       []uint32
	vids       []uint32
	arena      bipartite.Arena
}

// SampleInto draws one subgraph exactly like m.Sample(g, ratio, rng) —
// identical rng consumption, identical subgraph, identical parent id maps —
// but builds it in s's buffers. Methods not implemented by this package
// fall back to m.Sample (allocating).
func SampleInto(m Method, g *bipartite.Graph, ratio float64, rng *rand.Rand, s *Scratch) *bipartite.Subgraph {
	switch m := m.(type) {
	case RandomEdge:
		n := g.NumEdges()
		idx := s.ascending(s.sampleIndices(n, sampleCount(n, ratio), rng))
		// The sorted draw is the canonical (user-major) edge-id list; the
		// arena build walks it straight into CSR rows with no intermediate
		// edge list.
		return g.InducedByEdgeIDsArena(&s.arena, idx)
	case OneSideNode:
		n := g.NumNodesOn(m.Side)
		ids := s.sampleIDs(&s.uids, n, sampleCount(n, ratio), rng)
		if m.Side == bipartite.UserSide {
			return g.InducedByUsersArena(&s.arena, ids)
		}
		return g.InducedByMerchantsArena(&s.arena, ids)
	case TwoSideNode:
		nu, nm := g.NumUsers(), g.NumMerchants()
		users := s.sampleIDs(&s.uids, nu, sampleCount(nu, ratio), rng)
		merchants := s.sampleIDs(&s.vids, nm, sampleCount(nm, ratio), rng)
		return g.InducedByBothArena(&s.arena, users, merchants)
	default:
		return m.Sample(g, ratio, rng)
	}
}

// sampleIndices draws m distinct ints from [0, n) using Floyd's algorithm,
// O(m) expected time. The chosen-set is the scratch's bitset; the rng
// consumption and output order are identical to the historical map-backed
// implementation, which is what keeps fixed-seed ensembles byte-identical
// across the allocating and scratch paths.
func (s *Scratch) sampleIndices(n, m int, rng *rand.Rand) []int {
	// Restore the bitset's all-zero invariant by clearing exactly the words
	// the previous draw touched (their only set bits are that draw's — the
	// invariant held before it ran). Clear before any resize: a fresh
	// allocation below relies on the old array being discardable as
	// all-zero-equivalent.
	for _, j := range s.idx {
		s.chosenBits[j>>6] = 0
	}
	if words := (n + 63) >> 6; len(s.chosenBits) < words {
		s.chosenBits = make([]uint64, words)
	}
	out := s.idx[:0]
	for i := n - m; i < n; i++ {
		j := rng.Intn(i + 1)
		if s.chosenBits[j>>6]&(1<<(j&63)) != 0 {
			j = i
		}
		s.chosenBits[j>>6] |= 1 << (j & 63)
		out = append(out, j)
	}
	s.idx = out
	return out
}

// ascending rewrites idx, the draw sampleIndices just made, as the same ids
// in ascending order: it sweeps the chosen-set's set bits word by word,
// lowest bit first, and stops at the last drawn id. The set of ids, and so
// the words the next draw clears, is unchanged.
func (s *Scratch) ascending(idx []int) []int {
	k := 0
	for w := 0; k < len(idx); w++ {
		for word := s.chosenBits[w]; word != 0; word &= word - 1 {
			idx[k] = w<<6 + bits.TrailingZeros64(word)
			k++
		}
	}
	return idx
}

// LastDraw exposes the node ids the most recent SampleInto drew, for callers
// that need the sampled-node set itself rather than the realized subgraph
// (the ensemble's incremental-reuse record): for ONS primary holds the drawn
// side's ids, for TNS primary holds the drawn users and secondary the drawn
// merchants. For RES the draw is edge indices, not node ids, and both slices
// are meaningless. The slices alias the scratch and are valid until the next
// SampleInto with the same scratch.
func (s *Scratch) LastDraw() (primary, secondary []uint32) {
	return s.uids, s.vids
}

func (s *Scratch) sampleIDs(buf *[]uint32, n, m int, rng *rand.Rand) []uint32 {
	idx := s.sampleIndices(n, m, rng)
	ids := scratch.Grow(buf, len(idx))
	for i, x := range idx {
		ids[i] = uint32(x)
	}
	return ids
}

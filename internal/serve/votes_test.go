package serve

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"weak"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
)

// TestSparseVotesMatchDense checks the cached sparse form against the dense
// core.Votes it is built from: accept at every threshold and rank at every
// (minVotes, top) must give what the dense reference gives.
func TestSparseVotesMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n, hi int, density float64) []int {
		v := make([]int, n)
		for i := range v {
			if rng.Float64() < density {
				v[i] = 1 + rng.Intn(hi)
			}
		}
		return v
	}
	lastVoted := random(50, 9, 0.3)
	lastVoted[len(lastVoted)-1] = 4
	cases := []core.Votes{
		{User: nil, Merchant: []int{}, NumSamples: 1},
		{User: make([]int, 40), Merchant: make([]int, 7), NumSamples: 12},
		{User: lastVoted, Merchant: []int{0, 0, 9}, NumSamples: 9},
		{User: []int{MaxEnsembleSize, 0, MaxEnsembleSize - 1, 1, MaxEnsembleSize}, Merchant: []int{MaxEnsembleSize}, NumSamples: MaxEnsembleSize},
	}
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(12)
		cases = append(cases, core.Votes{User: random(300, n, 0.2), Merchant: random(120, n, 0.35), NumSamples: n})
	}
	for ci, dense := range cases {
		sv := newSparseVotes(&dense)
		if sv.NumSamples != dense.NumSamples {
			t.Fatalf("case %d: NumSamples %d, want %d", ci, sv.NumSamples, dense.NumSamples)
		}
		for _, th := range []int{1, 2, 3, dense.NumSamples / 2, dense.NumSamples, dense.NumSamples + 1} {
			if th < 1 {
				continue
			}
			if got, want := sv.User.accept(th), dense.AcceptUsers(th); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("case %d t=%d: users %v, want %v", ci, th, got, want)
			}
			if got, want := sv.Merchant.accept(th), dense.AcceptMerchants(th); !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("case %d t=%d: merchants %v, want %v", ci, th, got, want)
			}
		}
		for _, minVotes := range []int{-1, 0, 1, 2, 5, MaxEnsembleSize} {
			for _, top := range []int{-1, 0, 1, 3, 10, 1000} {
				if got, want := sv.User.rank(minVotes, top), rankDense(dense.User, minVotes, top); !slices.Equal(got, want) {
					t.Fatalf("case %d min=%d top=%d: user ranking %v, want %v", ci, minVotes, top, got, want)
				}
				if got, want := sv.Merchant.rank(minVotes, top), rankDense(dense.Merchant, minVotes, top); !slices.Equal(got, want) {
					t.Fatalf("case %d min=%d top=%d: merchant ranking %v, want %v", ci, minVotes, top, got, want)
				}
			}
		}
	}
}

// TestDemotedBasesAreReleased pins that a newer version's run replaces its
// fingerprint's cached entry and releases the older one whole: across six
// versions of one fingerprint, exactly one entry stays cached and exactly
// one core.Output (the newest, the incremental base) is still reachable
// after a GC.
func TestDemotedBasesAreReleased(t *testing.T) {
	g := seedStream(t)
	e := NewEngine(g, Options{})
	ctx := context.Background()
	p := onsParams()
	var outs []weak.Pointer[core.Output]
	for i := 0; i < 6; i++ {
		if i > 0 {
			g.Append([]bipartite.Edge{{U: uint32(5200 + i), V: 3}})
		}
		d, err := e.Detect(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		ent := e.done[p.Fingerprint()]
		if ent == nil || ent.version != d.GraphVersion || ent.out == nil {
			e.mu.Unlock()
			t.Fatalf("version %d: newest run retained no output", d.GraphVersion)
		}
		outs = append(outs, weak.Make(ent.out))
		e.mu.Unlock()
	}
	runtime.GC()
	runtime.GC()
	runtime.KeepAlive(e)
	live := 0
	for _, w := range outs {
		if w.Value() != nil {
			live++
		}
	}
	if live != 1 {
		t.Errorf("%d of %d run outputs reachable, want only the newest base", live, len(outs))
	}
	if st := e.Stats(); st.CacheEntries != 1 {
		t.Errorf("cache holds %d entries, want only the newest version's", st.CacheEntries)
	}
}

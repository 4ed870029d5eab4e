// Incremental detection: re-run only the ensemble samples an ingest delta
// actually dirtied, reusing every other sample's recorded vote contribution.
//
// The reuse argument rests on two determinism facts. First, sample i's rng is
// derived from (Seed, i) alone, and each sampler consumes that stream as a
// pure function of its population size — |E| for RES, |U| or |V| for ONS,
// both for TNS — so when the population size is unchanged, the sample
// provably draws the same index sequence on the new graph. Second, the
// default density metric weighs each merchant by its own degree only, so a
// merchant whose adjacency the delta did not touch keeps its frozen parent
// weight. A sample is therefore clean when the delta provably leaves its
// realized subgraph and every weight it reads unchanged; the clean
// conditions are per-sampler:
//
//   - ONS-merchant: |V| unchanged and no drawn merchant touched. The
//     subgraph is the drawn merchants' rows; user-universe growth is
//     harmless because the draw never looks at |U| and untouched rows cannot
//     mention new users.
//   - ONS-user: |U| unchanged, no drawn user touched, and no realized
//     merchant touched (their weights are read).
//   - TNS: |U| and |V| unchanged and no drawn node on either side touched.
//   - RES: |E| unchanged, no realized user inside the touched-user id
//     interval, and no realized merchant touched. RES draws edge indices, so
//     the id interval argument carries the proof: every change sits in a
//     touched user's CSR row, rows below the smallest touched user keep
//     their offsets, and rows above the largest keep theirs too because the
//     net edge-count shift is zero — so an edge id resolving into a user
//     outside the interval resolves to the same (user, merchant) pair.
//
// The drawn set — not the realized subgraph — is the dependency for node
// samplers: a drawn zero-degree node is absent from the realized subgraph,
// but an edge arriving at it changes what the same draw realizes, so it must
// dirty the sample. Everything unprovable (unknown sampler, custom metric,
// changed universe size where the draw depends on it) falls back to a cold
// run via ErrNotResumable.

package core

import (
	"errors"
	"fmt"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/sampling"
)

// ErrNotResumable reports that RunIncremental cannot prove reuse for the
// given (previous output, config, delta) and the caller must run cold. It is
// always wrapped with the specific reason; test with errors.Is.
var ErrNotResumable = errors.New("not resumable")

// reuseKind names the per-sampler clean/dirty rule a Record was built under.
type reuseKind uint8

const (
	reuseRES reuseKind = iota + 1
	reuseONSUser
	reuseONSMerchant
	reuseTNS
)

// reuseKindOf maps a sampling method to its reuse rule; ok is false for
// methods this package cannot reason about (third-party samplers).
func reuseKindOf(m sampling.Method) (reuseKind, bool) {
	switch m := m.(type) {
	case sampling.RandomEdge:
		return reuseRES, true
	case sampling.OneSideNode:
		if m.Side == bipartite.UserSide {
			return reuseONSUser, true
		}
		return reuseONSMerchant, true
	case sampling.TwoSideNode:
		return reuseTNS, true
	}
	return 0, false
}

// resumableConfig reports whether a run under cfg can be proven reusable at
// all: a custom metric or explicit weights may depend on global graph state,
// and score curves cannot be reconstructed for reused samples.
func resumableConfig(cfg Config) bool {
	return !cfg.CollectScores && cfg.FDet.Metric == nil && cfg.FDet.MerchantWeights == nil
}

// Record is the resumable state of one recorded run: per sample, the bitset
// of parent nodes the realized subgraph provably depends on and the sparse
// voted-node lists, plus the graph dimensions and config identity the proof
// is valid against. Records are immutable once their run returns; a later
// RunIncremental aliases clean samples' voted lists into its own fresh
// Record rather than mutating this one.
type Record struct {
	kind  reuseKind
	n     int
	seed  int64
	ratio float64

	// Graph dimensions at record time: the population sizes the samplers'
	// rng-consumption proof is pinned to, and the id spaces the dep bitsets
	// and voted lists index.
	numUsers, numMerchants, numEdges int

	// Per-sample dependency bitsets, n rows of wordsU/wordsM words each in
	// one spine (row i is depU[i*wordsU:(i+1)*wordsU]). What the bits mean
	// is kind-specific: drawn nodes for node samplers, realized nodes for
	// RES and for ONS-user's merchant side. wordsU is 0 for ONS-merchant,
	// whose samples depend on no individual user.
	wordsU, wordsM int
	depU, depM     []uint64

	// votedU[i]/votedM[i] are sample i's vote contribution as parent-id
	// lists (each node at most once per sample). Subtracting them undoes the
	// sample exactly; integer votes make the arithmetic lossless.
	votedU, votedM [][]uint32

	// khats[i] is sample i's truncation point, re-reported for reused
	// samples. Owned by the record.
	khats []int
}

func words(n int) int { return (n + 63) >> 6 }

func newRecord(kind reuseKind, n int, seed int64, ratio float64, g *bipartite.Graph) *Record {
	r := &Record{
		kind:         kind,
		n:            n,
		seed:         seed,
		ratio:        ratio,
		numUsers:     g.NumUsers(),
		numMerchants: g.NumMerchants(),
		numEdges:     g.NumEdges(),
		votedU:       make([][]uint32, n),
		votedM:       make([][]uint32, n),
		khats:        make([]int, n),
	}
	r.wordsU, r.wordsM = words(r.numUsers), words(r.numMerchants)
	if kind == reuseONSMerchant {
		r.wordsU = 0
	}
	if r.wordsU > 0 {
		r.depU = make([]uint64, n*r.wordsU)
	}
	if r.wordsM > 0 {
		r.depM = make([]uint64, n*r.wordsM)
	}
	return r
}

// recordDeps writes sample i's dependency bits. Rows are disjoint per
// sample, so concurrent workers recording different samples never race.
func (r *Record) recordDeps(i int, sg *bipartite.Subgraph, drawnPrim, drawnSec []uint32) {
	du := r.depU[i*r.wordsU : (i+1)*r.wordsU]
	dm := r.depM[i*r.wordsM : (i+1)*r.wordsM]
	switch r.kind {
	case reuseRES:
		setBits(du, sg.UserIDs)
		setBits(dm, sg.MerchantIDs)
	case reuseONSUser:
		setBits(du, drawnPrim)
		setBits(dm, sg.MerchantIDs)
	case reuseONSMerchant:
		setBits(dm, drawnPrim)
	case reuseTNS:
		setBits(du, drawnPrim)
		setBits(dm, drawnSec)
	}
}

func setBits(words []uint64, ids []uint32) {
	for _, id := range ids {
		words[id>>6] |= 1 << (id & 63)
	}
}

// hitAny reports whether any id below dim has its bit set in words. Ids at
// or past dim are skipped: they postdate the record's universe, so no old
// sample can depend on them.
func hitAny(words []uint64, ids []uint32, dim int) bool {
	for _, id := range ids {
		if int(id) < dim && words[id>>6]&(1<<(id&63)) != 0 {
			return true
		}
	}
	return false
}

// anyBitInRange reports whether words has any set bit in [lo, hi].
func anyBitInRange(words []uint64, lo, hi int) bool {
	if lo > hi {
		return false
	}
	loW, hiW := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if loW == hiW {
		return words[loW]&loMask&hiMask != 0
	}
	if words[loW]&loMask != 0 || words[hiW]&hiMask != 0 {
		return true
	}
	for w := loW + 1; w < hiW; w++ {
		if words[w] != 0 {
			return true
		}
	}
	return false
}

// DeltaInfo is the touched-node churn between the graph a previous output
// was computed on and the graph passed to RunIncremental: every user and
// merchant whose adjacency changed, as a conservative superset (duplicates
// and false positives allowed — they only over-invalidate; omissions would
// corrupt votes). internal/stream.Graph.Delta produces exactly this.
type DeltaInfo struct {
	Users     []uint32
	Merchants []uint32
}

// IncrementalStats reports how much work an incremental run reused.
type IncrementalStats struct {
	// Reused is the number of samples whose recorded votes were carried
	// over; Rerun is the number re-executed. They sum to NumSamples.
	Reused, Rerun int
}

// classify partitions the record's samples against the delta, appending
// dirty sample indices to dst and returning it. Allocation-free: the loops
// only test bits recorded at run time. minTU/maxTU bound the touched-user id
// interval for the RES rule (callers pass 0, -1 when no users were touched).
func classify(rec *Record, delta DeltaInfo, minTU, maxTU int, dst []int) []int {
	for i := 0; i < rec.n; i++ {
		du := rec.depU[i*rec.wordsU : (i+1)*rec.wordsU]
		dm := rec.depM[i*rec.wordsM : (i+1)*rec.wordsM]
		dirty := false
		switch rec.kind {
		case reuseRES:
			hi := maxTU
			if hi > rec.numUsers-1 {
				hi = rec.numUsers - 1
			}
			dirty = anyBitInRange(du, minTU, hi) || hitAny(dm, delta.Merchants, rec.numMerchants)
		case reuseONSUser:
			dirty = hitAny(du, delta.Users, rec.numUsers) || hitAny(dm, delta.Merchants, rec.numMerchants)
		case reuseONSMerchant:
			dirty = hitAny(dm, delta.Merchants, rec.numMerchants)
		case reuseTNS:
			dirty = hitAny(du, delta.Users, rec.numUsers) || hitAny(dm, delta.Merchants, rec.numMerchants)
		}
		if dirty {
			dst = append(dst, i)
		}
	}
	return dst
}

// RunIncremental re-computes the ensemble on g, reusing prev — a recorded
// Output produced with the same Config on an earlier version of the same
// graph — for every sample the delta provably does not affect. Dirty
// samples' old sparse votes are subtracted and the samples re-executed
// through the same spine Run uses, so the returned votes are byte-identical
// to Run(g, cfg) — reuse is proven, never approximated.
//
// delta must cover exactly the changes between prev's graph and g (a
// conservative superset of touched nodes is fine; an omission is not). The
// caller must pass the same Config that produced prev: Seed, N, S, and the
// sampling method are checked against the record, the FDet options (which
// the record cannot capture) are the caller's contract. ErrNotResumable —
// mismatched or unprovable configurations, a shrunken universe, a population
// size the sampler's draw depends on having changed — means "run cold", not
// failure; any other error is a genuine run failure.
//
// The returned Output carries a fresh Record, so incremental runs chain:
// v→v+1→v+2 each reuse the previous step's record.
func RunIncremental(g *bipartite.Graph, cfg Config, prev *Output, delta DeltaInfo) (*Output, IncrementalStats, error) {
	var st IncrementalStats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	if prev == nil || prev.Rec == nil {
		return nil, st, fmt.Errorf("core: %w: previous output carries no reuse record", ErrNotResumable)
	}
	rec := prev.Rec
	n, method, ratio := cfg.numSamples(), cfg.method(), cfg.sampleRatio()
	kind, ok := reuseKindOf(method)
	if !ok || !cfg.Record || !resumableConfig(cfg) {
		return nil, st, fmt.Errorf("core: %w: config cannot be proven reusable", ErrNotResumable)
	}
	if kind != rec.kind || n != rec.n || cfg.Seed != rec.seed || ratio != rec.ratio {
		return nil, st, fmt.Errorf("core: %w: config does not match the recorded run", ErrNotResumable)
	}
	nu, nm, ne := g.NumUsers(), g.NumMerchants(), g.NumEdges()
	if nu < rec.numUsers || nm < rec.numMerchants {
		return nil, st, fmt.Errorf("core: %w: node universe shrank", ErrNotResumable)
	}
	switch kind {
	case reuseRES:
		if ne != rec.numEdges {
			return nil, st, fmt.Errorf("core: %w: |E| changed, RES edge-index space shifted", ErrNotResumable)
		}
	case reuseONSUser:
		if nu != rec.numUsers {
			return nil, st, fmt.Errorf("core: %w: |U| changed, ONS-user draw stream shifted", ErrNotResumable)
		}
	case reuseONSMerchant:
		if nm != rec.numMerchants {
			return nil, st, fmt.Errorf("core: %w: |V| changed, ONS-merchant draw stream shifted", ErrNotResumable)
		}
	case reuseTNS:
		if nu != rec.numUsers || nm != rec.numMerchants {
			return nil, st, fmt.Errorf("core: %w: node universe changed, TNS draw streams shifted", ErrNotResumable)
		}
	}

	// Touched-user id interval for the RES row-offset argument.
	minTU, maxTU := 0, -1
	if kind == reuseRES && len(delta.Users) > 0 {
		minTU, maxTU = int(delta.Users[0]), int(delta.Users[0])
		for _, u := range delta.Users[1:] {
			if int(u) < minTU {
				minTU = int(u)
			}
			if int(u) > maxTU {
				maxTU = int(u)
			}
		}
	}

	dirty := classify(rec, delta, minTU, maxTU, make([]int, 0, n))
	st.Reused, st.Rerun = n-len(dirty), len(dirty)

	env := newRunEnv(g, cfg)
	newRec := env.rec
	if newRec == nil {
		// Unreachable given the checks above, but never continue without a
		// record: the chain would silently go cold.
		return nil, st, fmt.Errorf("core: %w: recording unavailable", ErrNotResumable)
	}

	// Seed the output with the previous votes (new nodes start at zero), then
	// subtract the dirty samples' old contributions; execute adds their new
	// ones. Clean samples carry everything over: votes stay by construction,
	// dep rows are copied (row widths can only have grown with the universe;
	// the prefix copy is exact because ids are stable), and voted lists are
	// aliased — records are immutable once built, so sharing is safe.
	copy(env.out.Votes.User, prev.Votes.User)
	copy(env.out.Votes.Merchant, prev.Votes.Merchant)
	for _, i := range dirty {
		for _, id := range rec.votedU[i] {
			env.out.Votes.User[id]--
		}
		for _, id := range rec.votedM[i] {
			env.out.Votes.Merchant[id]--
		}
	}
	d := 0
	for i := 0; i < n; i++ {
		if d < len(dirty) && dirty[d] == i {
			d++
			continue
		}
		env.out.KHats[i] = rec.khats[i]
		env.out.SampleWork[i] = 0
		newRec.khats[i] = rec.khats[i]
		newRec.votedU[i], newRec.votedM[i] = rec.votedU[i], rec.votedM[i]
		if rec.wordsU > 0 {
			copy(newRec.depU[i*newRec.wordsU:i*newRec.wordsU+rec.wordsU], rec.depU[i*rec.wordsU:(i+1)*rec.wordsU])
		}
		if rec.wordsM > 0 {
			copy(newRec.depM[i*newRec.wordsM:i*newRec.wordsM+rec.wordsM], rec.depM[i*rec.wordsM:(i+1)*rec.wordsM])
		}
	}
	if err := env.execute(dirty); err != nil {
		return nil, st, err
	}
	return env.out, st, nil
}

// Package core implements ENSEMFDET, the paper's primary contribution
// (§IV-C, Algorithm 2): an ensemble that oversamples a bipartite graph N
// times, runs the FDET heuristic on every sampled subgraph in parallel,
// accumulates per-node votes in the original id space, and accepts nodes by
// majority voting against a threshold T (Definition 4).
//
// The vote threshold is what gives ENSEMFDET its practicability edge over
// plain FRAUDAR: sweeping T yields a near-continuous family of detection
// sets (the smooth curves of Figures 3-9) instead of a few discrete block
// unions.
package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/scratch"
)

// Config carries the ensemble parameters of the paper's Table II.
type Config struct {
	// Method is the structural sampler M; nil means RES.
	Method sampling.Method
	// NumSamples is N, the number of sampled graphs; 0 means DefaultN.
	NumSamples int
	// SampleRatio is S ∈ (0, 1]; 0 means DefaultS.
	SampleRatio float64
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS. Each worker
	// holds one scratch Arena for the length of the Run, so peak scratch
	// grows with Parallelism and none of it outlives the Run.
	Parallelism int
	// Seed makes the whole ensemble deterministic. Sample i draws from an
	// rng seeded with Seed and i only.
	Seed int64
	// FDet configures the per-subgraph detector.
	FDet fdet.Options
	// CollectScores retains every sample's per-block score curve in the
	// output (Figure 1); costs O(N·kˆ) memory.
	CollectScores bool
	// Record, when set, attaches a reuse Record to the Output: per sample,
	// the node set the realized subgraph provably depends on (compact
	// bitsets) and the sparse vote contribution (voted-node lists). The
	// record is what RunIncremental consumes to re-run only the samples a
	// later ingest delta dirtied. Recording is skipped — Output.Rec stays
	// nil, and the run is simply not resumable — for configurations whose
	// reuse cannot be proven: an unknown sampling method, a custom density
	// metric or explicit merchant weights (their values need not be local to
	// a merchant's own adjacency), or CollectScores (clean samples cannot
	// reconstruct their score curves). Record never affects votes.
	Record bool
}

// Defaults for the paper's main experimental setting (§V-C1).
const (
	DefaultN = 80
	DefaultS = 0.1
)

// RepetitionRate returns R = S × N, the expected number of times each edge
// (under RES) is covered by the ensemble (Table II).
func (c Config) RepetitionRate() float64 {
	return c.sampleRatio() * float64(c.numSamples())
}

func (c Config) method() sampling.Method {
	if c.Method == nil {
		return sampling.RandomEdge{}
	}
	return c.Method
}

func (c Config) numSamples() int {
	if c.NumSamples <= 0 {
		return DefaultN
	}
	return c.NumSamples
}

func (c Config) sampleRatio() float64 {
	if c.SampleRatio <= 0 {
		return DefaultS
	}
	return c.SampleRatio
}

func (c Config) parallelism() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}

// ValidSampleRatio reports whether s is an acceptable sample ratio: 0 (use
// the default) or a value in (0,1]. The positive form of the range check
// also rejects NaN, which both halves of a naive `< 0 || > 1` miss — NaN
// would otherwise panic deep in the sampler. Every layer that validates S
// (facade, core, serve) must share this predicate so they cannot diverge.
func ValidSampleRatio(s float64) bool {
	return s == 0 || (s > 0 && s <= 1)
}

func (c Config) validate() error {
	if !ValidSampleRatio(c.SampleRatio) {
		return fmt.Errorf("core: sample ratio S must be in (0,1], got %g", c.SampleRatio)
	}
	if c.NumSamples < 0 {
		return fmt.Errorf("core: number of samples N must be non-negative (0 selects the default %d), got %d",
			DefaultN, c.NumSamples)
	}
	return nil
}

// Votes holds per-node vote counts in the parent graph's id space: node x
// received Votes[x] votes, one per sampled graph whose FDET output contained
// it (h_i(x) in Definition 4).
type Votes struct {
	User       []int
	Merchant   []int
	NumSamples int
}

// AcceptUsers returns the user ids with at least T votes, ascending.
func (v *Votes) AcceptUsers(t int) []uint32 { return acceptIDs(v.User, t) }

// AcceptMerchants returns the merchant ids with at least T votes, ascending.
func (v *Votes) AcceptMerchants(t int) []uint32 { return acceptIDs(v.Merchant, t) }

func acceptIDs(votes []int, t int) []uint32 {
	if t < 1 {
		t = 1
	}
	var out []uint32
	for id, n := range votes {
		if n >= t {
			out = append(out, uint32(id))
		}
	}
	return out
}

// CountUsersAt returns |{u : votes(u) ≥ T}| without materializing the set.
func (v *Votes) CountUsersAt(t int) int {
	if t < 1 {
		t = 1
	}
	n := 0
	for _, c := range v.User {
		if c >= t {
			n++
		}
	}
	return n
}

// MaxUserVotes returns the highest vote count any user received.
func (v *Votes) MaxUserVotes() int {
	m := 0
	for _, c := range v.User {
		if c > m {
			m = c
		}
	}
	return m
}

// UserThresholds returns the sorted distinct positive vote counts present
// among users; sweeping exactly these thresholds visits every distinct
// detection set.
func (v *Votes) UserThresholds() []int {
	seen := make(map[int]bool)
	for _, c := range v.User {
		if c > 0 {
			seen[c] = true
		}
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Output is the result of Run.
type Output struct {
	Votes Votes
	// BlockScores[i] is sample i's per-block φ curve (only when
	// Config.CollectScores is set).
	BlockScores [][]float64
	// KHats[i] is sample i's truncation point kˆ.
	KHats []int
	// SampleWork[i] is the serial CPU-side duration of sample i
	// (sampling + FDET). The sum is the serial cost of the parallel phase;
	// dividing by the worker count models wall time at other parallelism
	// levels (Table III's projection). A sample reused by RunIncremental
	// reports zero work.
	SampleWork []time.Duration
	// Rec is the reuse record (Config.Record); nil when recording was off or
	// the configuration is not provably resumable. It is the incremental
	// base the serving layer keeps across requests.
	Rec *Record
	// PeelRounds is the total number of peeling rounds (detected blocks,
	// pre-truncation) executed across the run's samples — the unit the
	// peeler's O(kˆ|E|) cost scales with. Samples reused by RunIncremental
	// contribute nothing, so the count measures work actually done, not
	// work implied by the ensemble size. Each worker counts its own samples
	// and the counts are summed after the workers join; integer addition
	// commutes, so the value is deterministic for a fixed Config.
	PeelRounds int64
}

// TotalWork returns the summed serial duration of all samples.
func (o *Output) TotalWork() time.Duration {
	var total time.Duration
	for _, w := range o.SampleWork {
		total += w
	}
	return total
}

// Run executes the parallel phase of Algorithm 2 and returns the aggregated
// votes. It is deterministic for a fixed Config (including Seed) regardless
// of Parallelism.
func Run(g *bipartite.Graph, cfg Config) (*Output, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := newRunEnv(g, cfg)
	if err := env.execute(nil); err != nil {
		return nil, err
	}
	return env.out, nil
}

// runEnv is the shared execution spine of Run and RunIncremental: the frozen
// parent weights, the output being filled, the optional reuse record, and
// the worker machinery. Both entry points execute samples through exactly
// the same code path, which is what makes incremental votes byte-identical
// to cold ones rather than merely close.
type runEnv struct {
	g             *bipartite.Graph
	cfg           Config
	n             int
	method        sampling.Method
	ratio         float64
	parentWeights []float64
	out           *Output
	rec           *Record
}

func newRunEnv(g *bipartite.Graph, cfg Config) *runEnv {
	env := &runEnv{
		g:      g,
		cfg:    cfg,
		n:      cfg.numSamples(),
		method: cfg.method(),
		ratio:  cfg.sampleRatio(),
	}

	// Freeze the density metric's merchant weights on the parent graph so
	// every sample judges merchants by their global popularity (camouflage
	// resistance per Definition 2), not by their deflated in-sample degree.
	metric := cfg.FDet.Metric
	if metric == nil {
		metric = density.Default()
	}
	env.parentWeights = cfg.FDet.MerchantWeights
	if env.parentWeights == nil {
		env.parentWeights = metric.MerchantWeights(g)
	}

	env.out = &Output{
		Votes: Votes{
			User:       make([]int, g.NumUsers()),
			Merchant:   make([]int, g.NumMerchants()),
			NumSamples: env.n,
		},
	}
	env.out.KHats = make([]int, env.n)
	env.out.SampleWork = make([]time.Duration, env.n)
	if cfg.CollectScores {
		env.out.BlockScores = make([][]float64, env.n)
	}

	if cfg.Record {
		if kind, ok := reuseKindOf(env.method); ok && resumableConfig(cfg) {
			env.rec = newRecord(kind, env.n, cfg.Seed, env.ratio, g)
			env.out.Rec = env.rec
		}
	}
	return env
}

// execute runs the given sample indices (nil means all n) through the worker
// pool, accumulating their votes into out.Votes on top of whatever it already
// holds. Deterministic for a fixed Config regardless of Parallelism or which
// goroutine processes which sample.
func (env *runEnv) execute(indices []int) error {
	g, cfg, out, rec := env.g, env.cfg, env.out, env.rec

	// A panic in a worker (sampler or FDET on a degenerate subgraph) must
	// not crash the process: long-running callers like the serving daemon
	// have a recover around Run, but that cannot reach goroutines spawned
	// here. Each job recovers individually — the worker keeps draining the
	// channel so the producer never blocks — and the first panic is
	// reported as the run's error.
	var (
		panicMu  sync.Mutex
		panicErr error
		voteMu   sync.Mutex
	)
	runSample := func(a *Arena, i int, rounds *int64) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicErr == nil {
					panicErr = fmt.Errorf("core: sample %d panicked: %v", i, r)
				}
				panicMu.Unlock()
			}
		}()
		//ensemfdet:nondeterministic-ok per-sample wall timing feeds SampleWork metrics, never vote bytes
		start := time.Now()
		// Each sample gets its own rng derived from (Seed, i) so
		// results do not depend on goroutine scheduling.
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)*2_654_435_761 + 1))
		sg := sampling.SampleInto(env.method, g, env.ratio, rng, &a.samp)
		if rec != nil {
			drawnPrim, drawnSec := a.samp.LastDraw()
			rec.recordDeps(i, sg, drawnPrim, drawnSec)
		}
		opts := cfg.FDet
		weights := scratch.Grow(&a.weights, sg.NumMerchants())
		for lv := range weights {
			weights[lv] = env.parentWeights[sg.ParentMerchant(uint32(lv))]
		}
		opts.MerchantWeights = weights
		res := a.det.Detect(sg.Graph, opts)
		// Cast votes in the parent id space directly off the retained
		// blocks: the stamps dedup nodes whose edges are split across
		// blocks, so each node votes at most once per sample (h_i(x) of
		// Definition 4) — no union set is ever materialized. Recording runs
		// collect each sample's voted-node list instead of bumping dense
		// worker accumulators; the lists are both the merge input and the
		// sparse vote contribution a later RunIncremental subtracts.
		a.seenU.Reset(sg.NumUsers())
		a.seenV.Reset(sg.NumMerchants())
		if rec != nil {
			var vu, vm []uint32
			for _, blk := range res.Blocks {
				for _, lu := range blk.Users {
					if a.seenU.TryAdd(int(lu)) {
						vu = append(vu, sg.ParentUser(lu))
					}
				}
				for _, lv := range blk.Merchants {
					if a.seenV.TryAdd(int(lv)) {
						vm = append(vm, sg.ParentMerchant(lv))
					}
				}
			}
			rec.votedU[i], rec.votedM[i] = vu, vm
			rec.khats[i] = res.TruncatedAt
		} else {
			for _, blk := range res.Blocks {
				for _, lu := range blk.Users {
					if a.seenU.TryAdd(int(lu)) {
						a.userVotes[sg.ParentUser(lu)]++
					}
				}
				for _, lv := range blk.Merchants {
					if a.seenV.TryAdd(int(lv)) {
						a.merchVotes[sg.ParentMerchant(lv)]++
					}
				}
			}
		}
		out.KHats[i] = res.TruncatedAt
		*rounds += int64(len(res.Scores))
		if cfg.CollectScores {
			// res.Scores aliases the worker's scratch; the retained curve
			// needs its own copy (CollectScores is the off-hot-path mode).
			out.BlockScores[i] = append([]float64(nil), res.Scores...)
		}
		//ensemfdet:nondeterministic-ok SampleWork is an observability duration, not part of the vote
		out.SampleWork[i] = time.Since(start)
	}

	var wg sync.WaitGroup
	jobs := make(chan int)
	workers := cfg.parallelism()
	rounds := make([]int64, workers) // per-worker peel rounds, summed after the join
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := new(Arena)
			if rec == nil {
				scratch.GrowZero(&a.userVotes, g.NumUsers())
				scratch.GrowZero(&a.merchVotes, g.NumMerchants())
			}
			for i := range jobs {
				runSample(a, i, &rounds[w])
			}
			if rec == nil {
				// Merge this worker's votes. Integer addition commutes, so
				// the merge order (worker completion order) cannot affect
				// results.
				voteMu.Lock()
				for id, c := range a.userVotes {
					if c != 0 {
						out.Votes.User[id] += c
					}
				}
				for id, c := range a.merchVotes {
					if c != 0 {
						out.Votes.Merchant[id] += c
					}
				}
				voteMu.Unlock()
			}
		}()
	}
	if indices == nil {
		for i := 0; i < env.n; i++ {
			jobs <- i
		}
	} else {
		for _, i := range indices {
			jobs <- i
		}
	}
	close(jobs)
	wg.Wait()
	for _, r := range rounds {
		out.PeelRounds += r
	}
	if panicErr != nil {
		return panicErr
	}
	if rec != nil {
		// Recording merge: add each executed sample's voted list. Serial and
		// index-ordered, hence deterministic by construction.
		if indices == nil {
			for i := 0; i < env.n; i++ {
				env.addVotes(i)
			}
		} else {
			for _, i := range indices {
				env.addVotes(i)
			}
		}
	}
	return nil
}

// addVotes folds sample i's recorded voted-node lists into the output votes.
func (env *runEnv) addVotes(i int) {
	for _, id := range env.rec.votedU[i] {
		env.out.Votes.User[id]++
	}
	for _, id := range env.rec.votedM[i] {
		env.out.Votes.Merchant[id]++
	}
}

// Package serve implements the detection job engine behind the ensemfdetd
// daemon: it turns the batch ensemble of internal/core into a query-serving
// layer over a dynamic internal/stream graph.
//
// The key observation — the one the paper sells as ENSEMFDET's
// practicability edge — is that the expensive parallel phase (sampling +
// FDET + vote aggregation) depends only on the graph and the ensemble
// configuration, never on the vote threshold T. The engine therefore caches
// the ensemble's votes per config fingerprint, stamped with the graph version
// they were computed on: any threshold sweep, top-K ranking, or repeated
// detect against an unchanged graph is a cache hit that costs a map lookup
// plus an O(voted) scan, since a cached vote set keeps only the nodes with at
// least one vote. A request only ever asks for the current version, so each
// config keeps just its newest completed run, which doubles as the base the
// next version's run resumes from. Concurrent requests for the same
// (version, config) are single-flighted into one ensemble run, and distinct
// cold keys share a bounded worker pool so a burst of queries cannot
// oversubscribe the host.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/stream"
)

// Params selects one ensemble configuration. The zero value reproduces the
// paper's main setting (RES, N = 80, S = 0.1, seed 0). Two Params that
// normalize to the same values share a cache entry.
type Params struct {
	// Sampler is the structural sampling method name understood by
	// sampling.ByName ("RES", "ONS-user", "ONS-merchant", "TNS"); empty
	// means RES.
	Sampler string
	// NumSamples is the ensemble size N (0 → core.DefaultN).
	NumSamples int
	// SampleRatio is S ∈ (0,1] (0 → core.DefaultS).
	SampleRatio float64
	// Seed fixes the ensemble's randomness.
	Seed int64
}

func (p Params) normalize() Params {
	if p.Sampler == "" {
		p.Sampler = "RES"
	}
	if p.NumSamples <= 0 {
		p.NumSamples = core.DefaultN
	}
	if p.SampleRatio <= 0 {
		p.SampleRatio = core.DefaultS
	}
	return p
}

// ErrInvalidParams tags parameter validation failures so transport layers
// can map them to client errors (HTTP 400) via errors.Is.
var ErrInvalidParams = errors.New("invalid detection parameters")

// ErrOverloaded tags batches shed by the bounded ingest queue
// (Options.IngestQueue) so transport layers can map them to 429 +
// Retry-After via errors.Is. A shed batch was never appended; retrying it
// later is safe (and dedup makes even an accidental double-send safe).
var ErrOverloaded = errors.New("ingest queue full")

// Validate checks the sampler name and numeric ranges without touching any
// graph — cheap enough to run before a request body is even fully trusted.
// It inspects the raw (pre-normalization) values so that a negative, huge,
// or NaN sample ratio is rejected rather than silently replaced with the
// default.
func (p Params) Validate() error {
	if _, err := sampling.ByName(p.normalize().Sampler); err != nil {
		return fmt.Errorf("serve: %w: %v", ErrInvalidParams, err)
	}
	if !core.ValidSampleRatio(p.SampleRatio) {
		return fmt.Errorf("serve: %w: sample ratio S must be in (0,1], got %g", ErrInvalidParams, p.SampleRatio)
	}
	if p.NumSamples < 0 || p.NumSamples > MaxEnsembleSize {
		return fmt.Errorf("serve: %w: number of samples N must be in [0,%d], got %d",
			ErrInvalidParams, MaxEnsembleSize, p.NumSamples)
	}
	return nil
}

// MaxEnsembleSize caps the per-request ensemble size N. The paper's largest
// setting is N = 200; the cap exists because ensemble memory and work are
// O(N), and the detect endpoint must not let one request allocate
// per-sample state for an arbitrary N.
const MaxEnsembleSize = 10_000

// A cached vote count is at most N, so it fits a uint16 (VoteList.Counts);
// this fails to compile if MaxEnsembleSize ever outgrows that.
const _ uint16 = math.MaxUint16 - MaxEnsembleSize

// Fingerprint returns a canonical string identifying the detection-relevant
// parameters; it is the config half of the vote-cache key.
func (p Params) Fingerprint() string {
	n := p.normalize()
	return n.Sampler + "|N=" + strconv.Itoa(n.NumSamples) +
		"|S=" + strconv.FormatFloat(n.SampleRatio, 'g', -1, 64) +
		"|seed=" + strconv.FormatInt(n.Seed, 10)
}

// Options configures an Engine.
type Options struct {
	// MaxConcurrent bounds how many ensemble runs may execute at once
	// across all cache keys (0 → 2). Each run itself parallelizes over
	// samples, so a small number is usually right.
	MaxConcurrent int
	// MaxCacheEntries bounds how many configs (fingerprints) the vote cache
	// holds; the least recently used one is evicted first (0 → 32). Each
	// config keeps one vote set, its newest completed version, at 6 bytes
	// per voted node, plus, for a resumable config, its run's full output
	// (dense votes and the reuse record) as the incremental base: about
	// 3.7 MB a config in all on a 181K-node graph at N = 80 with 24 % of
	// nodes voted, 265 KB of it the vote set. In-flight runs do not count
	// toward the bound.
	MaxCacheEntries int
	// MaxNodeID bounds the node ids the ingest path accepts (0 → 1<<26;
	// values above bipartite.MaxNodeID are clamped to it, since CSR offset
	// arithmetic indexes by id+1). Graph and vote memory is proportional
	// to the largest id, not the edge count, so without a cap a single
	// tiny request naming id 2^32-2 would force multi-gigabyte allocations
	// on the next detection.
	MaxNodeID uint32
	// IncrementalMaxDeltaRatio bounds when a run goes incremental instead of
	// cold: the edge churn between the base version and the requested one
	// must be at most this fraction of the snapshot's edges (0 → 0.25;
	// negative disables incremental detection entirely). Past the threshold
	// most samples are dirty anyway and classification is pure overhead.
	IncrementalMaxDeltaRatio float64
	// IngestQueue bounds how many ingest batches may be inside Ingest at
	// once (validating, appending, journaling). When the bound is reached
	// further batches are shed immediately with ErrOverloaded — surfaced by
	// the HTTP layer as 429 + Retry-After — so overload degrades into
	// explicit backpressure instead of ballooning every caller's latency
	// behind the shard and WAL locks. 0 means unbounded (no admission
	// control), preserving the pre-queue behavior.
	IngestQueue int
}

func (o Options) maxConcurrent() int {
	if o.MaxConcurrent <= 0 {
		return 2
	}
	return o.MaxConcurrent
}

func (o Options) maxCacheEntries() int {
	if o.MaxCacheEntries <= 0 {
		return 32
	}
	return o.MaxCacheEntries
}

func (o Options) incrementalMaxDeltaRatio() float64 {
	if o.IncrementalMaxDeltaRatio == 0 {
		return 0.25
	}
	if o.IncrementalMaxDeltaRatio < 0 {
		return 0
	}
	return o.IncrementalMaxDeltaRatio
}

func (o Options) maxNodeID() uint32 {
	if o.MaxNodeID == 0 {
		return 1 << 26
	}
	if o.MaxNodeID > bipartite.MaxNodeID {
		return bipartite.MaxNodeID
	}
	return o.MaxNodeID
}

// MaxNodeID returns the effective ingest id bound (the transport layer
// enforces it per batch).
func (e *Engine) MaxNodeID() uint32 { return e.opts.maxNodeID() }

// Snapshotter is the engine's seam to the dynamic graph: anything that can
// ingest edge batches, report sizes, and hand out immutable versioned
// snapshots can sit behind the engine. *stream.Graph is the production
// implementation; tests can substitute fakes. Implementations may
// additionally expose ShardSizes() []stream.ShardSize and
// BuildStats() stream.BuildStats, which Stats and the metrics endpoint
// surface when present.
type Snapshotter interface {
	Snapshot() (*bipartite.Graph, uint64)
	Append(edges []bipartite.Edge) stream.AppendResult
	Stats() stream.Stats
}

// Windower is the optional windowing extension of Snapshotter: a source that
// can retire edges under a sliding-window policy. *stream.Graph implements
// it; when the engine's source does and a policy is active, the engine
// surfaces window stats/metrics, and Ingest kicks an asynchronous retire
// pass whenever a batch pushes the live count past the MaxEdges bound (age
// bounds are the retire ticker's job — cmd/ensemfdetd runs one).
type Windower interface {
	Retire(now time.Time) stream.RetireResult
	Window() stream.WindowPolicy
	WindowStats() stream.WindowStats
}

// Deltaer is the optional churn-tracking extension of Snapshotter: a source
// that can report which nodes changed between two snapshot versions.
// *stream.Graph implements it; when present, the engine reuses the cached
// run of a config fingerprint as an incremental base and re-runs
// only the samples the delta dirtied (core.RunIncremental). ok=false from
// Delta — evicted history, a restore, an epoch resync — simply forces a cold
// run.
type Deltaer interface {
	Delta(from, to uint64) (stream.Delta, bool)
}

type cacheKey struct {
	version uint64
	config  string
}

// entry is one ensemble run: in flight under its cacheKey, then, if it is
// the newest completed run of its fingerprint, the fingerprint's cached vote
// set and incremental base until a newer run replaces it or LRU eviction
// drops it. Either way the whole entry, output included, is released at
// once.
type entry struct {
	done    chan struct{} // closed when votes/err are set
	version uint64        // the graph version the run computes
	// votes is the sparse copy every query reads; it shares no memory with
	// out.
	votes *SparseVotes
	err   error
	// out is the full recorded output, kept (set under the engine lock when
	// the entry is cached) only when it carries a reuse record: it is what
	// the next version's run resumes from. Every array in it is the run's
	// own: no later run writes to it.
	out *core.Output
	// used is the engine's use tick at the entry's last publish or hit, for
	// LRU eviction; guarded by the engine lock.
	used uint64
	// Run provenance, fixed before done closes: whether the run reused a
	// base, and how many samples were carried over vs re-executed (a cold
	// run reports 0 / NumSamples).
	incremental   bool
	reused, rerun int
}

// Engine serves detection queries over a dynamic graph from a vote cache.
// It is safe for concurrent use.
type Engine struct {
	src  Snapshotter
	opts Options
	// sem bounds concurrent ensemble runs. A run's scratch (one arena per
	// worker) lives inside core.Run and is dropped when it returns: the
	// engine keeps none between requests, so idle memory does not grow
	// with the core count.
	sem chan struct{}

	// done holds the newest completed run per config fingerprint; flight
	// holds the runs still executing, which are never evicted (a repeat
	// request must coalesce onto them, not launch a duplicate). tick stamps
	// entry.used. All guarded by mu.
	mu     sync.Mutex
	done   map[string]*entry
	flight map[cacheKey]*entry
	tick   uint64

	hits   atomic.Uint64
	misses atomic.Uint64
	runs   atomic.Uint64 // completed ensemble runs (cold or incremental)

	// delta is the source's churn-tracking seam (nil when the Snapshotter
	// cannot report deltas); the detect counters below split runs by path.
	delta         Deltaer
	incRuns       atomic.Uint64
	coldRuns      atomic.Uint64
	incFallbacks  atomic.Uint64
	samplesReused atomic.Uint64
	samplesRerun  atomic.Uint64
	detectLatency latencyHist

	ingestBatches atomic.Uint64
	ingestEdges   atomic.Uint64 // edges actually added (post-dedup)
	ingestDups    atomic.Uint64

	// ingestSlots is the bounded admission queue (nil when Options.IngestQueue
	// is 0): a batch holds one slot for its whole stay inside Ingest, and a
	// batch that cannot get a slot without blocking is shed.
	ingestSlots chan struct{}
	ingestShed  atomic.Uint64

	// peelRounds totals the peeling rounds executed by completed ensemble
	// runs (cache hits and reused incremental samples add nothing): the
	// detect path's unit of work.
	peelRounds atomic.Uint64

	// win is the source's windowing seam (nil when the Snapshotter cannot
	// retire). retiring single-flights the post-ingest count-policy kicks;
	// retireWG lets Close join an in-flight kick before tearing down the
	// persistence the retire would journal into.
	win         Windower
	retiring    atomic.Bool
	retireWG    sync.WaitGroup
	retireKicks atomic.Uint64

	// persist, when attached, is the daemon's durability store; the engine
	// only observes it (Stats, /metrics) and closes it on shutdown — the
	// write path reaches it through the stream graph's journal hook.
	persist *persist.Store

	// repl, when attached, reports replication state for Stats and /metrics
	// (primary shipping counters or follower lag, mapped by the daemon).
	repl func() *ReplStats
}

// NewEngine returns an Engine serving detections over src.
func NewEngine(src Snapshotter, opts Options) *Engine {
	e := &Engine{
		src:    src,
		opts:   opts,
		sem:    make(chan struct{}, opts.maxConcurrent()),
		done:   make(map[string]*entry),
		flight: make(map[cacheKey]*entry),
	}
	e.win, _ = src.(Windower)
	e.delta, _ = src.(Deltaer)
	if opts.IngestQueue > 0 {
		e.ingestSlots = make(chan struct{}, opts.IngestQueue)
	}
	return e
}

// VoteList is one side of a cached vote set: the ids that received at least
// one vote, ascending, and their counts (Counts[i] is IDs[i]'s count).
// Ensemble votes are sparse — only members of a detected block get one — so
// this is usually a small fraction of the side's node count.
type VoteList struct {
	IDs    []uint32
	Counts []uint16
}

func sparseList(dense []int) VoteList {
	n := 0
	for _, c := range dense {
		if c != 0 {
			n++
		}
	}
	l := VoteList{IDs: make([]uint32, 0, n), Counts: make([]uint16, 0, n)}
	for id, c := range dense {
		if c != 0 {
			l.IDs = append(l.IDs, uint32(id))
			l.Counts = append(l.Counts, uint16(c))
		}
	}
	return l
}

// accept returns the ids with at least t votes (t >= 1), ascending; nil when
// there are none, like core.Votes.AcceptUsers.
func (l VoteList) accept(t int) []uint32 {
	var out []uint32
	for i, c := range l.Counts {
		if int(c) >= t {
			out = append(out, l.IDs[i])
		}
	}
	return out
}

// rank returns the ids with at least minVotes votes, sorted by votes
// descending then id ascending, truncated to top entries (top <= 0 → all).
func (l VoteList) rank(minVotes, top int) []NodeVotes {
	if minVotes < 1 {
		minVotes = 1
	}
	out := make([]NodeVotes, 0, 64)
	for i, c := range l.Counts {
		if int(c) >= minVotes {
			out = append(out, NodeVotes{ID: l.IDs[i], Votes: int(c)})
		}
	}
	slices.SortFunc(out, func(a, b NodeVotes) int {
		return cmp.Or(cmp.Compare(b.Votes, a.Votes), cmp.Compare(a.ID, b.ID))
	})
	if top > 0 && len(out) > top {
		out = out[:top]
	}
	return out
}

// SparseVotes is the cached form of an ensemble's core.Votes: per side, only
// the nodes with at least one vote.
type SparseVotes struct {
	User       VoteList
	Merchant   VoteList
	NumSamples int
}

func newSparseVotes(v *core.Votes) *SparseVotes {
	return &SparseVotes{User: sparseList(v.User), Merchant: sparseList(v.Merchant), NumSamples: v.NumSamples}
}

// VoteSet is a cached ensemble outcome pinned to the graph version that
// produced it.
type VoteSet struct {
	// Votes is the cache entry's shared vote set (one pointer per cache
	// key); callers must treat it as read-only.
	Votes *SparseVotes
	// GraphVersion is the stream version the ensemble ran against.
	GraphVersion uint64
	// Cached reports whether this request was answered from cache (true)
	// or had to execute the ensemble (false). Requests that coalesce onto
	// another in-flight run count as cached.
	Cached bool
	// Incremental reports whether the run that produced these votes reused a
	// previous version's ensemble record; ReusedSamples/RerunSamples split
	// the ensemble by clean vs dirty classification (a cold run reports
	// 0/NumSamples). Cache hits report the original run's values.
	Incremental   bool
	ReusedSamples int
	RerunSamples  int
}

// Votes returns the ensemble vote counts for the current graph version under
// p, computing them at most once per (version, config) key while that version
// is the config's newest. Concurrent calls with the same key block on a
// single underlying run. ctx cancels the wait, not the computation — an
// abandoned run still completes and populates the cache for the next caller.
func (e *Engine) Votes(ctx context.Context, p Params) (VoteSet, error) {
	if err := p.Validate(); err != nil {
		return VoteSet{}, err
	}
	start := time.Now()
	snap, version := e.src.Snapshot()
	key := cacheKey{version: version, config: p.Fingerprint()}

	e.mu.Lock()
	cached := e.done[key.config]
	ent, ok := e.flight[key]
	switch {
	case cached != nil && cached.version == version:
		ent, ok = cached, true
		e.tick++
		ent.used = e.tick
	case !ok:
		ent = &entry{done: make(chan struct{}), version: version}
		e.flight[key] = ent
		// The cached run is the incremental base if it is older. Holding
		// the entry through the run keeps its output usable even if a newer
		// run or eviction drops it from the cache meanwhile.
		var base *entry
		if cached != nil && cached.version < version && cached.out != nil &&
			e.delta != nil && e.opts.incrementalMaxDeltaRatio() > 0 {
			base = cached
		}
		go e.run(key, ent, snap, p, base)
	}
	e.mu.Unlock()
	if ok {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}

	select {
	case <-ent.done:
	case <-ctx.Done():
		return VoteSet{}, ctx.Err()
	}
	if ent.err != nil {
		return VoteSet{}, ent.err
	}
	e.detectLatency.observe(time.Since(start))
	return VoteSet{
		Votes:         ent.votes,
		GraphVersion:  version,
		Cached:        ok,
		Incremental:   ent.incremental,
		ReusedSamples: ent.reused,
		RerunSamples:  ent.rerun,
	}, nil
}

// FlushCache drops every cached vote set and forgets every in-flight run
// (their waiters keep the entry pointer; fresh requests recompute, and the
// forgotten runs publish nothing). The cache is keyed on the numeric graph
// version, so it is only coherent while versions never repeat — an
// epoch-boundary resync moves the version backwards, after which a
// re-reached version number names different graph content and every
// pre-resync entry is poison. Incremental bases die with their entries:
// after a resync the recorded dependencies describe a different graph
// history, and the stream layer's delta history is reset anyway.
func (e *Engine) FlushCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	clear(e.done)
	clear(e.flight)
}

func (e *Engine) run(key cacheKey, ent *entry, snap *bipartite.Graph, p Params, base *entry) {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	defer close(ent.done)
	var out *core.Output
	defer func() { e.publish(key, ent, out) }()
	// A panic in the ensemble must surface as a request error, not kill
	// the daemon: this goroutine has no other recover between it and the
	// runtime.
	defer func() {
		if r := recover(); r != nil {
			ent.err = fmt.Errorf("serve: ensemble run panicked: %v", r)
		}
	}()

	n := p.normalize()
	method, err := sampling.ByName(n.Sampler)
	if err != nil {
		ent.err = err
		return
	}
	cfg := core.Config{
		Method:      method,
		NumSamples:  n.NumSamples,
		SampleRatio: n.SampleRatio,
		Seed:        n.Seed,
		// Record every run: the per-sample record is what the next version's
		// run resumes from. Non-resumable configs skip recording internally.
		Record: true,
	}

	// Try to resume from the newest completed run of this fingerprint. Any
	// failure to prove reuse — no base, evicted delta history, churn past the
	// threshold, a non-resumable config — falls back to a cold run; votes are
	// byte-identical either way.
	if base != nil {
		if d, dok := e.delta.Delta(base.version, key.version); dok && e.deltaWithinRatio(d, snap) {
			o, st, ierr := core.RunIncremental(snap, cfg, base.out, core.DeltaInfo{
				Users:     d.Users,
				Merchants: d.Merchants,
			})
			switch {
			case ierr == nil:
				out = o
				ent.incremental = true
				ent.reused, ent.rerun = st.Reused, st.Rerun
				e.incRuns.Add(1)
				e.samplesReused.Add(uint64(st.Reused))
				e.samplesRerun.Add(uint64(st.Rerun))
			case errors.Is(ierr, core.ErrNotResumable):
				e.incFallbacks.Add(1)
			default:
				ent.err = ierr
				return
			}
		}
	}
	if out == nil {
		out, err = core.Run(snap, cfg)
		if err == nil {
			e.coldRuns.Add(1)
			ent.rerun = out.Votes.NumSamples
			e.samplesRerun.Add(uint64(out.Votes.NumSamples))
		}
	}
	if err != nil {
		ent.err = err
		return
	}
	ent.votes = newSparseVotes(&out.Votes)
	e.runs.Add(1)
	e.peelRounds.Add(uint64(out.PeelRounds))
}

// deltaWithinRatio applies the incremental threshold: the churn between base
// and target must be a small fraction of the snapshot's edges.
func (e *Engine) deltaWithinRatio(d stream.Delta, snap *bipartite.Graph) bool {
	ne := snap.NumEdges()
	if ne == 0 {
		return false
	}
	return float64(d.EdgesChanged()) <= e.opts.incrementalMaxDeltaRatio()*float64(ne)
}

// publish retires ent from the in-flight set and, if it succeeded and is
// its fingerprint's newest run, caches it in place of the older entry, which
// is released whole. It runs before ent.done closes, so a waiter's next
// request already sees the cache it left. A failed run is not negatively
// cached: its waiters get the error and the next request retries instead of
// replaying a possibly transient failure forever on a static graph. A stale
// run finishing late serves only its own waiters. A run whose entry
// FlushCache dropped publishes nothing: post-resync version numbers restart,
// and a stale high version would block every new-timeline run from
// publishing.
func (e *Engine) publish(key cacheKey, ent *entry, out *core.Output) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.flight[key] != ent {
		return
	}
	delete(e.flight, key)
	cur := e.done[key.config]
	if ent.err != nil || (cur != nil && cur.version >= ent.version) {
		return
	}
	if cur == nil && len(e.done) >= e.opts.maxCacheEntries() {
		e.evictLocked()
	}
	if out.Rec != nil {
		ent.out = out
	}
	e.tick++
	ent.used = e.tick
	e.done[key.config] = ent
}

// evictLocked drops the least recently used cached config. Caller holds
// e.mu.
func (e *Engine) evictLocked() {
	var lru string
	var oldest *entry
	for fp, ent := range e.done {
		if oldest == nil || ent.used < oldest.used {
			lru, oldest = fp, ent
		}
	}
	delete(e.done, lru)
}

// Detection is a thresholded fraud set served from cached votes.
type Detection struct {
	Users        []uint32
	Merchants    []uint32
	Threshold    int
	NumSamples   int
	GraphVersion uint64
	Cached       bool
	// Incremental, ReusedSamples and RerunSamples describe the run that
	// produced the underlying votes (see VoteSet).
	Incremental   bool
	ReusedSamples int
	RerunSamples  int
}

// Detect answers one MVA query at threshold t. t < 0 picks the paper's
// default N/2; t = 0 is clamped to 1 (a node needs at least one vote to be
// detected) and the clamped value is reported, so the response threshold is
// always the one actually applied. The threshold is applied at query time
// against cached votes, so sweeping t is free once any one threshold has
// been asked.
func (e *Engine) Detect(ctx context.Context, p Params, t int) (Detection, error) {
	vs, err := e.Votes(ctx, p)
	if err != nil {
		return Detection{}, err
	}
	if t < 0 {
		t = vs.Votes.NumSamples / 2
	}
	if t < 1 {
		t = 1
	}
	return Detection{
		Users:         vs.Votes.User.accept(t),
		Merchants:     vs.Votes.Merchant.accept(t),
		Threshold:     t,
		NumSamples:    vs.Votes.NumSamples,
		GraphVersion:  vs.GraphVersion,
		Cached:        vs.Cached,
		Incremental:   vs.Incremental,
		ReusedSamples: vs.ReusedSamples,
		RerunSamples:  vs.RerunSamples,
	}, nil
}

// NodeVotes pairs a node id with its vote count for ranked output.
type NodeVotes struct {
	ID    uint32 `json:"id"`
	Votes int    `json:"votes"`
}

// Ranking is a ranked vote listing for both sides of the graph.
type Ranking struct {
	Users        []NodeVotes
	Merchants    []NodeVotes
	NumSamples   int
	GraphVersion uint64
	Cached       bool
}

// Rank returns the top-K voted users and merchants with at least minVotes
// votes, served from the same cache as Detect.
func (e *Engine) Rank(ctx context.Context, p Params, minVotes, top int) (Ranking, error) {
	vs, err := e.Votes(ctx, p)
	if err != nil {
		return Ranking{}, err
	}
	return Ranking{
		Users:        vs.Votes.User.rank(minVotes, top),
		Merchants:    vs.Votes.Merchant.rank(minVotes, top),
		NumSamples:   vs.Votes.NumSamples,
		GraphVersion: vs.GraphVersion,
		Cached:       vs.Cached,
	}, nil
}

// Stats is a point-in-time engine and graph summary; the cache counters are
// what lets operators (and the end-to-end tests) verify that threshold
// sweeps do not trigger recomputation. Shards and Build are present when the
// underlying Snapshotter exposes them (the sharded stream graph does).
type Stats struct {
	Graph  stream.Stats       `json:"graph"`
	Shards []stream.ShardSize `json:"shards,omitempty"`
	Build  *stream.BuildStats `json:"build,omitempty"`
	// Window reports the sliding-window policy, watermark and retire
	// counters when the underlying source can window and a policy is active;
	// nil for an unbounded graph.
	Window       *stream.WindowStats `json:"window,omitempty"`
	CacheEntries int                 `json:"cache_entries"`
	CacheHits    uint64              `json:"cache_hits"`
	CacheMisses  uint64              `json:"cache_misses"`
	EnsembleRuns uint64              `json:"ensemble_runs"`
	InFlight     int                 `json:"in_flight"`
	// Detect splits completed ensemble runs by path (incremental vs cold)
	// and counts sample-level reuse; it is how operators verify that small
	// ingest deltas are not paying cold-run latency.
	Detect      DetectStats `json:"detect"`
	IngestStats IngestStats `json:"ingest"`
	// Persist reports WAL and snapshot counters when a durability store is
	// attached; nil for a memory-only daemon.
	Persist *persist.Stats `json:"persist,omitempty"`
	// Repl reports replication state when this daemon ships to or follows
	// another; nil for a standalone daemon.
	Repl *ReplStats `json:"repl,omitempty"`
}

// ReplStats is the transport-neutral replication summary for /v1/stats and
// /metrics; cmd/ensemfdetd maps the replicate package's counters into it so
// serve stays free of a replicate import. Primary-side fields are zero on a
// follower and vice versa.
type ReplStats struct {
	// Role is "primary", "follower", or "promoting" (mid-failover).
	Role string `json:"role"`
	// Epoch is the failover term this node has adopted; Fenced reports a
	// deposed primary — it observed a higher term and rejects local writes.
	Epoch  uint64 `json:"epoch"`
	Fenced bool   `json:"fenced,omitempty"`
	// Promotions counts this process's successful follower→primary
	// transitions.
	Promotions uint64 `json:"promotions,omitempty"`
	// Follower side.
	Primary           string  `json:"primary,omitempty"`
	PrimaryVersion    uint64  `json:"primary_version,omitempty"`
	AppliedVersion    uint64  `json:"applied_version,omitempty"`
	VersionsBehind    uint64  `json:"versions_behind"`
	SecondsBehind     float64 `json:"seconds_behind"`
	RecordsApplied    uint64  `json:"records_applied,omitempty"`
	TombstonesApplied uint64  `json:"tombstones_applied,omitempty"`
	Resyncs           uint64  `json:"resyncs,omitempty"`
	Reconnects        uint64  `json:"reconnects,omitempty"`
	JournalErrors     uint64  `json:"journal_errors,omitempty"`
	EpochAdopts       uint64  `json:"epoch_adopts,omitempty"`
	EpochResyncs      uint64  `json:"epoch_resyncs,omitempty"`
	EpochRejects      uint64  `json:"epoch_rejects,omitempty"`
	BackoffSeconds    float64 `json:"backoff_seconds,omitempty"`
	Ready             bool    `json:"ready"`
	// Both sides: bytes shipped over the replication channel (sent for a
	// primary, received for a follower).
	BytesShipped uint64 `json:"bytes_shipped"`
	// Primary side.
	TailRequests uint64 `json:"tail_requests,omitempty"`
	TailRecords  uint64 `json:"tail_records,omitempty"`
	FilesShipped uint64 `json:"files_shipped,omitempty"`
	EpochFences  uint64 `json:"epoch_fences,omitempty"`
}

// IngestStats counts what passed through Ingest (the daemon's chokepoint).
type IngestStats struct {
	Batches    uint64 `json:"batches"`
	Added      uint64 `json:"added"`
	Duplicates uint64 `json:"duplicates"`
	// Shed counts batches refused by the bounded admission queue (HTTP
	// 429); QueueDepth/QueueBound describe the queue at sampling time.
	// QueueBound 0 means admission control is off.
	Shed       uint64 `json:"shed"`
	QueueDepth int    `json:"queue_depth"`
	QueueBound int    `json:"queue_bound"`
}

// Stats returns current counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	entries := len(e.done) + len(e.flight)
	e.mu.Unlock()
	st := Stats{
		Graph:        e.src.Stats(),
		CacheEntries: entries,
		CacheHits:    e.hits.Load(),
		CacheMisses:  e.misses.Load(),
		EnsembleRuns: e.runs.Load(),
		InFlight:     len(e.sem),
		Detect:       e.detectStats(),
		IngestStats: IngestStats{
			Batches:    e.ingestBatches.Load(),
			Added:      e.ingestEdges.Load(),
			Duplicates: e.ingestDups.Load(),
			Shed:       e.ingestShed.Load(),
			QueueDepth: len(e.ingestSlots),
			QueueBound: cap(e.ingestSlots),
		},
	}
	if ss, ok := e.src.(interface{ ShardSizes() []stream.ShardSize }); ok {
		st.Shards = ss.ShardSizes()
	}
	if bs, ok := e.src.(interface{ BuildStats() stream.BuildStats }); ok {
		b := bs.BuildStats()
		st.Build = &b
	}
	if e.win != nil && e.win.Window().Enabled() {
		w := e.win.WindowStats()
		st.Window = &w
	}
	if e.persist != nil {
		p := e.persist.Stats()
		st.Persist = &p
	}
	if e.repl != nil {
		st.Repl = e.repl()
	}
	return st
}

// AttachRepl registers a replication stats source (primary shipping counters
// or follower lag), surfaced in Stats and /metrics. Attach before serving
// traffic.
func (e *Engine) AttachRepl(fn func() *ReplStats) { e.repl = fn }

// AttachPersist registers the durability store backing this engine's graph,
// surfacing its counters in Stats and /metrics and handing its lifetime to
// Close. Attach before serving traffic.
func (e *Engine) AttachPersist(st *persist.Store) { e.persist = st }

// Close flushes and closes the attached durability store (final snapshot +
// WAL sync); it is a no-op for a memory-only engine. Call it after the HTTP
// server has drained, so no ingest races the shutdown flush. An in-flight
// background retire pass is joined first — its tombstone must reach the WAL
// before the final snapshot cut, not race the store teardown.
func (e *Engine) Close() error {
	e.retireWG.Wait()
	if e.persist == nil {
		return nil
	}
	return e.persist.Close()
}

// RetireNow runs one synchronous retire pass against the source's window
// policy (the daemon's retire ticker calls this on its period). It reports
// ok=false when the source cannot window or no policy is active. Callers
// driving RetireNow from their own goroutine must join it before Close: a
// pass that commits its removal after the final snapshot cut, with its
// tombstone refused by the closed store, would resurrect the expired edges
// at the next boot. (Close itself only joins the engine's internal ingest
// kicks.)
func (e *Engine) RetireNow() (stream.RetireResult, bool) {
	if e.win == nil || !e.win.Window().Enabled() {
		return stream.RetireResult{}, false
	}
	return e.win.Retire(time.Now()), true
}

// kickRetire starts one background retire pass unless one is already in
// flight. It is the MaxEdges backstop: the retire ticker bounds staleness
// for the age policies, but a burst of ingest can blow through a count bound
// between ticks, so the ingest path kicks eagerly. A journal failure inside
// the pass is counted by the stream layer (WindowStats.JournalErrors) and
// degrades the persistence store exactly like a failed append; the pass
// itself needs no error plumbing here.
func (e *Engine) kickRetire() {
	if !e.retiring.CompareAndSwap(false, true) {
		return
	}
	e.retireKicks.Add(1)
	e.retireWG.Add(1)
	go func() {
		defer e.retireWG.Done()
		defer e.retiring.Store(false)
		e.win.Retire(time.Now())
	}()
}

// Ingest appends a batch of edges after enforcing the configured node-id
// bound. It is the single ingest chokepoint: ids are dense indices, so
// graph and vote memory scale with the largest id, and one edge naming id
// 2^32-2 would commit the next snapshot to multi-gigabyte allocations.
func (e *Engine) Ingest(edges []bipartite.Edge) (stream.AppendResult, error) {
	// Admission control first: under overload the cheapest thing to do with
	// a batch is refuse it before spending any validation or lock time on
	// it. The slot is held for the whole append (including the WAL write
	// behind the stream's journal hook), so the queue bound is a bound on
	// in-flight ingest work, and len(ingestSlots) is an honest depth gauge.
	if e.ingestSlots != nil {
		select {
		case e.ingestSlots <- struct{}{}:
			defer func() { <-e.ingestSlots }()
		default:
			e.ingestShed.Add(1)
			return stream.AppendResult{}, fmt.Errorf("serve: %w", ErrOverloaded)
		}
	}
	maxID := e.opts.maxNodeID()
	for i, ed := range edges {
		if ed.U > maxID || ed.V > maxID {
			return stream.AppendResult{}, fmt.Errorf("serve: %w: edge %d: %w: node id exceeds the configured maximum %d",
				ErrInvalidParams, i, bipartite.ErrIDRange, maxID)
		}
	}
	res := e.src.Append(edges)
	e.ingestBatches.Add(1)
	e.ingestEdges.Add(uint64(res.Added))
	e.ingestDups.Add(uint64(res.Duplicates))
	if e.win != nil {
		if p := e.win.Window(); p.MaxEdges > 0 && res.Stats.NumEdges > p.MaxEdges {
			e.kickRetire()
		}
	}
	if res.Err != nil {
		// The batch is in memory but the journal did not acknowledge it:
		// fail the request so the client retries (dedup makes that safe)
		// instead of believing the batch durable.
		return res, fmt.Errorf("serve: %w", res.Err)
	}
	return res, nil
}

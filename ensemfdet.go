// Package ensemfdet is a from-scratch Go implementation of ENSEMFDET, the
// ensemble approach to fraud detection on bipartite graphs of Ren, Zhu,
// Zhang, Dai and Bo (ICDE 2021; arXiv:1912.11113).
//
// ENSEMFDET finds groups of fraudsters — dense, synchronized blocks in the
// "who buy-from where" user-merchant purchase graph — by decomposing the
// graph into N structurally sampled subgraphs, running the FDET greedy
// densest-block heuristic on every sample in parallel, and majority-voting
// the per-sample detections into a final fraud set whose size is controlled
// continuously by a vote threshold T.
//
// The package is a facade over the building blocks in internal/: construct
// a Graph, configure a Detector, call Detect or Votes, and evaluate with
// the Labels helpers. The cmd/ tools and examples/ directories show complete
// workflows, and internal/experiments regenerates every table and figure of
// the paper's evaluation.
//
//	g, _ := ensemfdet.ReadGraphFile("transactions.tsv")
//	det := ensemfdet.NewDetector(ensemfdet.Config{})
//	res, _ := det.Detect(g, 40) // accept nodes with ≥ 40 of 80 votes
//	fmt.Println(res.Users)
package ensemfdet

import (
	"fmt"
	"io"
	"net/http"
	"os"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/density"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/serve"
	"ensemfdet/internal/stream"
)

// Graph is an immutable bipartite "who buy-from where" purchase graph.
type Graph = bipartite.Graph

// Edge is one purchase: user U bought from merchant V.
type Edge = bipartite.Edge

// GraphBuilder accumulates edges into a Graph.
type GraphBuilder = bipartite.Builder

// NewGraphBuilder returns an empty builder; side sizes are inferred from the
// edges added.
func NewGraphBuilder() *GraphBuilder { return bipartite.NewBuilder() }

// NewGraph constructs a Graph with declared side sizes from an edge list.
func NewGraph(numUsers, numMerchants int, edges []Edge) (*Graph, error) {
	return bipartite.FromEdges(numUsers, numMerchants, edges)
}

// ReadGraph parses a text edge list ("user<TAB>merchant" per line, '#'
// comments allowed) into a Graph.
func ReadGraph(r io.Reader) (*Graph, error) { return bipartite.ReadEdgeList(r) }

// ReadGraphFile reads an edge-list file.
func ReadGraphFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ensemfdet: %w", err)
	}
	defer f.Close()
	return ReadGraph(f)
}

// ReadGraphFileMax reads an edge-list file, rejecting any node id above
// maxID. Ids are dense indices — graph memory scales with the largest id,
// not the edge count — so use this for untrusted inputs.
func ReadGraphFileMax(path string, maxID uint32) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ensemfdet: %w", err)
	}
	defer f.Close()
	return bipartite.ReadEdgeListMax(f, maxID)
}

// ReadEdgesFile parses an edge-list file into a raw edge slice without
// building a graph, rejecting node ids above maxID — the right shape for
// feeding a StreamGraph, which dedups and builds snapshots itself.
func ReadEdgesFile(path string, maxID uint32) ([]Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ensemfdet: %w", err)
	}
	defer f.Close()
	return bipartite.ReadEdgesMax(f, maxID)
}

// ErrNodeIDRange tags errors caused by a node id above a configured bound —
// distinct from parse or I/O failures, so callers know raising the bound
// (not fixing the file) is the remedy. ReadEdgesFile, ReadGraphFileMax, and
// DetectEngine.Ingest all wrap it.
var ErrNodeIDRange = bipartite.ErrIDRange

// WriteGraph writes g as a text edge list.
func WriteGraph(w io.Writer, g *Graph) error { return bipartite.WriteEdgeList(w, g) }

// SamplerKind selects the structural sampling method M of Algorithm 2
// (paper §IV-A).
type SamplerKind string

// The four sampling methods analysed in the paper.
const (
	// RandomEdgeSampling draws S·|E| edges uniformly (RES, the default —
	// it is the method the paper fixes for the parameter studies).
	RandomEdgeSampling SamplerKind = "RES"
	// UserNodeSampling draws S·|U| users keeping all their edges
	// ("Node_PIN_Bagging" — the paper shows it is the weakest choice when
	// merchants carry the density).
	UserNodeSampling SamplerKind = "ONS-user"
	// MerchantNodeSampling draws S·|V| merchants keeping all their edges
	// ("Node_Merchant_Bagging" — retains dense topology when
	// Davg(merchant) ≫ Davg(user)).
	MerchantNodeSampling SamplerKind = "ONS-merchant"
	// TwoSideNodeSampling draws S of both sides and keeps the
	// cross-section; samples hold ≈ S²·|E| edges.
	TwoSideNodeSampling SamplerKind = "TNS"
)

// Config carries the ensemble parameters of the paper's Table II. The zero
// value reproduces the paper's main setting: RES, N = 80, S = 0.1,
// column-weighted density with c = 5, automatic kˆ truncation.
type Config struct {
	// Sampler is the structural sampling method M. Empty means RES.
	Sampler SamplerKind
	// NumSamples is N, the number of sampled subgraphs (0 → 80).
	NumSamples int
	// SampleRatio is S ∈ (0,1] (0 → 0.1).
	SampleRatio float64
	// Parallelism caps the worker pool (0 → GOMAXPROCS).
	Parallelism int
	// Seed fixes all sampling randomness; runs are fully deterministic.
	Seed int64
	// DensityC is the c constant of Definition 2's 1/log(d+c) merchant
	// weighting (0 → 5, the FRAUDAR reference value).
	DensityC float64
	// UseAvgDegreeMetric switches the density score to Charikar's
	// unweighted |E(S)|/|S| (an ablation; loses camouflage resistance).
	UseAvgDegreeMetric bool
	// FixedK disables automatic truncation and makes FDET return exactly
	// K blocks per sample (the ENSEMFDET-FIX-K ablation). 0 keeps the
	// paper's kˆ = argmin Δ²φ rule.
	FixedK int
	// MaxBlocksPerSample caps FDET rounds per sample (0 → 50).
	MaxBlocksPerSample int
}

// RepetitionRate returns R = S × N (Table II).
func (c Config) RepetitionRate() float64 { return c.coreConfig().RepetitionRate() }

func (c Config) metric() density.Metric {
	if c.UseAvgDegreeMetric {
		return density.AvgDegree{}
	}
	cc := c.DensityC
	if cc == 0 {
		cc = density.DefaultC
	}
	return density.ColumnWeighted{C: cc}
}

func (c Config) sampler() (sampling.Method, error) {
	if c.Sampler == "" {
		return sampling.RandomEdge{}, nil
	}
	return sampling.ByName(string(c.Sampler))
}

func (c Config) coreConfig() core.Config {
	return core.Config{
		NumSamples:  c.NumSamples,
		SampleRatio: c.SampleRatio,
		Parallelism: c.Parallelism,
		Seed:        c.Seed,
		FDet: fdet.Options{
			Metric:    c.metric(),
			FixedK:    c.FixedK,
			MaxBlocks: c.MaxBlocksPerSample,
		},
	}
}

// Detector runs the ENSEMFDET pipeline. It is safe for concurrent use; each
// call runs an independent ensemble.
type Detector struct {
	cfg    Config
	method sampling.Method
}

// NewDetector validates the configuration and returns a Detector.
func NewDetector(cfg Config) (*Detector, error) {
	m, err := cfg.sampler()
	if err != nil {
		return nil, err
	}
	if !core.ValidSampleRatio(cfg.SampleRatio) {
		return nil, fmt.Errorf("ensemfdet: sample ratio S must be in (0,1], got %g", cfg.SampleRatio)
	}
	return &Detector{cfg: cfg, method: m}, nil
}

// Votes holds per-node vote counts; see the methods for MVA thresholding.
type Votes = core.Votes

// Result is a final detection at one vote threshold.
type Result struct {
	// Users and Merchants are the accepted fraud sets (U_final, V_final of
	// Algorithm 2), ascending by id.
	Users     []uint32
	Merchants []uint32
	// Threshold is the MVA threshold T that produced the sets.
	Threshold int
	// NumSamples is the ensemble size N the votes came from.
	NumSamples int
}

// Votes runs the parallel ensemble phase (sampling + FDET + vote
// aggregation) and returns the vote counts, from which any number of
// thresholds can be evaluated without re-running detection.
func (d *Detector) Votes(g *Graph) (*Votes, error) {
	cc := d.cfg.coreConfig()
	cc.Method = d.method
	out, err := core.Run(g, cc)
	if err != nil {
		return nil, err
	}
	return &out.Votes, nil
}

// Detect runs the full pipeline and applies majority voting at threshold t.
func (d *Detector) Detect(g *Graph, t int) (Result, error) {
	votes, err := d.Votes(g)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Users:      votes.AcceptUsers(t),
		Merchants:  votes.AcceptMerchants(t),
		Threshold:  t,
		NumSamples: votes.NumSamples,
	}, nil
}

// Block is one dense subgraph detected by the FDET heuristic.
type Block = fdet.Block

// DetectBlocks runs plain FDET (no sampling, no ensemble) on the whole
// graph and returns the truncated block list — the building block the
// ensemble repeats per sample, exposed for diagnostics and for
// FRAUDAR-style single-shot detection.
func DetectBlocks(g *Graph, cfg Config) []Block {
	res := fdet.Detect(g, fdet.Options{
		Metric:    cfg.metric(),
		FixedK:    cfg.FixedK,
		MaxBlocks: cfg.MaxBlocksPerSample,
	})
	return res.Blocks
}

// DensityScore returns φ(G) of the whole graph under the configured metric
// (Definition 2).
func DensityScore(g *Graph, cfg Config) float64 {
	return density.Score(g, cfg.metric())
}

// --- streaming / serving layer ---
//
// The batch API above runs one ensemble per call. The streaming layer below
// is the daemon-shaped alternative: ingest purchase edges incrementally into
// a StreamGraph, then answer detection queries through a DetectEngine that
// caches ensemble votes per (graph version, config) — so threshold sweeps,
// re-queries and rankings against an unchanged graph are cache hits, and new
// edges invalidate exactly by bumping the version. cmd/ensemfdetd wraps the
// whole stack in an HTTP daemon.

// MaxNodeID is the largest node id the graph substrate supports; ids are
// dense uint32 indices and CSR offsets index by id+1.
const MaxNodeID = bipartite.MaxNodeID

// StreamGraph is a mutable, concurrency-safe dynamic bipartite graph with a
// monotonic version counter and cached immutable snapshots. Ingest is
// sharded across user-range partitions for multi-core writers, and
// snapshots are built incrementally from per-shard deltas; neither affects
// detection results.
type StreamGraph = stream.Graph

// NewStreamGraph returns an empty dynamic graph at version 0 with a default
// shard count near GOMAXPROCS.
func NewStreamGraph() *StreamGraph { return stream.New() }

// WindowPolicy bounds a StreamGraph's live edge set for unbounded streams:
// by wall-clock age, by version age, by live edge count, or any combination.
// Install with StreamGraph.SetWindow before the first append; apply with
// StreamGraph.Retire (the daemon runs a periodic retire ticker via
// -retire-every). Expired edges are no longer live to dedup, so a
// re-observed purchase re-ingests with fresh recency.
type WindowPolicy = stream.WindowPolicy

// WindowMark is the expiry watermark: no live edge carries an ingest stamp
// at or below it. Durable snapshots persist the mark so recovery restores
// expiry progress along with the edges.
type WindowMark = stream.WindowMark

// WindowStats reports window policy, watermark, and retire counters.
type WindowStats = stream.WindowStats

// RetireResult summarizes one retire pass or explicit StreamGraph.Remove.
type RetireResult = stream.RetireResult

// DetectEngine serves detection queries over a StreamGraph from a vote
// cache, single-flighting concurrent identical requests.
type DetectEngine = serve.Engine

// DetectParams selects one ensemble configuration for the engine; the zero
// value is the paper's main setting (RES, N = 80, S = 0.1).
type DetectParams = serve.Params

// EngineOptions bounds the engine's concurrency and cache size.
type EngineOptions = serve.Options

// EngineStats reports graph size, version and cache counters.
type EngineStats = serve.Stats

// NewDetectEngine returns an engine serving detections over src.
func NewDetectEngine(src *StreamGraph, opts EngineOptions) *DetectEngine {
	return serve.NewEngine(src, opts)
}

// NewHTTPHandler returns the ensemfdetd HTTP API (POST /v1/edges,
// POST /v1/detect, GET /v1/votes, GET /v1/stats, GET /healthz) over e.
func NewHTTPHandler(e *DetectEngine) http.Handler { return serve.NewHandler(e) }

// HTTPHandlerConfig shapes the HTTP surface by role: read-only mode with a
// primary pointer (the follower's write guard), a mounted replication
// handler, a /readyz gate, and a build version for /metrics.
type HTTPHandlerConfig = serve.HandlerConfig

// NewHTTPHandlerWith returns the ensemfdetd HTTP API over e shaped by cfg.
func NewHTTPHandlerWith(e *DetectEngine, cfg HTTPHandlerConfig) http.Handler {
	return serve.NewHandlerWith(e, cfg)
}

// ReplStats is the replication section of EngineStats (/v1/stats "repl"),
// populated via DetectEngine.AttachRepl.
type ReplStats = serve.ReplStats

// Package fdet implements FDET, the paper's heuristic fraud-detection
// algorithm (Algorithm 1): repeated greedy densest-block peeling with
// edge removal between rounds and automatic truncation of the block
// sequence at the elbow of the density-score curve (Definition 3).
package fdet

import (
	"math"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
	"ensemfdet/internal/scratch"
)

// Block is one detected dense subgraph. Ids are local to the graph that was
// peeled; callers detecting on sampled subgraphs map them back with the
// subgraph's id maps.
type Block struct {
	Users     []uint32
	Merchants []uint32
	// Score is the density score φ of the block at detection time, under
	// merchant weights frozen from the graph FDET started with.
	Score float64
}

// NumNodes returns |S| of the block.
func (b Block) NumNodes() int { return len(b.Users) + len(b.Merchants) }

// Options configures Detect. The zero value uses the paper's defaults.
type Options struct {
	// Metric is the density score; nil means density.Default().
	Metric density.Metric
	// MerchantWeights, when non-nil, overrides the metric's weights with
	// externally frozen per-merchant weights (length NumMerchants of the
	// graph passed to Detect). The ensemble freezes weights on the *parent*
	// graph before sampling: a merchant's suspiciousness discount must
	// reflect its global popularity, not its deflated degree inside one
	// sample — otherwise sparse connected blobs of rare merchants outscore
	// genuinely dense fraud blocks.
	MerchantWeights []float64
	// MaxBlocks caps the number of peeling rounds; 0 means DefaultMaxBlocks.
	MaxBlocks int
	// FixedK, when positive, detects exactly min(FixedK, available) blocks
	// and disables truncation. This is the ENSEMFDET-FIX-K variant and also
	// how the FRAUDAR baseline's K-block mode is expressed.
	FixedK int
	// DisableEarlyStop forces detection to run to MaxBlocks (or an empty
	// graph) before truncating. Used by tests to validate the early-stop
	// heuristic against the exhaustive result.
	DisableEarlyStop bool
}

// DefaultMaxBlocks bounds the number of peeling rounds. The paper observes
// kˆ "varies from few to few tens" and records kˆ < 15 in experiments.
const DefaultMaxBlocks = 50

// DefaultLookahead is the number of confirmation blocks detected beyond the
// running elbow estimate before stopping early.
const DefaultLookahead = 3

// Result is the outcome of Detect.
type Result struct {
	// Blocks are the retained blocks: the first TruncatedAt of the detected
	// sequence (all of it in FixedK mode).
	Blocks []Block
	// Scores holds φ of every detected block, pre-truncation, in detection
	// order. This is the curve of the paper's Figure 1.
	Scores []float64
	// TruncatedAt is kˆ, the number of retained blocks.
	TruncatedAt int
}

// Scratch holds the reusable state of one FDET worker: the peeler's alive
// adjacency, heap, priority/degree/order/membership tables, and the block
// and score storage of the last detection. A worker that runs many FDET
// detections (the ensemble runs one per sample) reuses a single Scratch and
// allocates nothing after warm-up.
//
// Aliasing contract: the Result returned by Scratch.Detect points into
// scratch-owned memory — block id slices and the score slice are overwritten
// by the next Detect on the same scratch. The zero value is ready to use.
// A Scratch must not be shared between goroutines without synchronization.
type Scratch struct {
	p        peeler
	refs     []blockRef
	blocks   []Block
	scoreBuf []float64
}

// Detect runs FDET on g exactly like the package-level Detect but reuses
// s's buffers. Results are identical; see the Scratch aliasing contract.
func (s *Scratch) Detect(g *bipartite.Graph, opts Options) Result {
	maxBlocks := opts.MaxBlocks
	if maxBlocks <= 0 {
		maxBlocks = DefaultMaxBlocks
	}
	if opts.FixedK > 0 {
		maxBlocks = opts.FixedK
	}
	// Weights default to the metric's on g (allocating); hot-path callers
	// pass frozen weights.
	weights := opts.MerchantWeights
	if weights == nil {
		metric := opts.Metric
		if metric == nil {
			metric = density.Default()
		}
		weights = metric.MerchantWeights(g)
	}

	s.p.reset(g, weights)
	refs := s.refs[:0]
	scores := s.scoreBuf[:0]
	for len(refs) < maxBlocks && s.p.aliveEdges > 0 {
		ref, ok := s.p.peelOnce()
		if !ok {
			break
		}
		refs = append(refs, ref)
		scores = append(scores, ref.score)
		if opts.FixedK > 0 || opts.DisableEarlyStop {
			continue
		}
		if len(scores) >= 3 {
			if kHat := TruncatingPoint(scores); len(scores) >= kHat+DefaultLookahead {
				break
			}
		}
	}
	s.refs = refs
	s.scoreBuf = scores

	kHat := len(refs)
	if opts.FixedK == 0 {
		kHat = TruncatingPoint(scores)
	}
	// Materialize blocks only now: the membership arrays are final, so the
	// subslices handed out cannot be moved by a later append.
	blocks := scratch.Grow(&s.blocks, len(refs))
	for i, ref := range refs {
		blocks[i] = s.p.block(ref)
	}
	return Result{Blocks: blocks[:kHat:kHat], Scores: scores, TruncatedAt: kHat}
}

// Detect runs FDET on g. Blocks are edge-disjoint: each round removes the
// detected block's edges before the next search, exactly as Algorithm 1 does
// (a node may appear in several blocks if its edges are split across them;
// the detected node set is the union, as in Alg. 1 lines 9-10).
func Detect(g *bipartite.Graph, opts Options) Result {
	// A fresh scratch per call keeps the returned Result exclusively owned,
	// preserving the original allocating semantics.
	var s Scratch
	return s.Detect(g, opts)
}

// TruncatingPoint implements Definition 3: kˆ = argmin_i Δ²φ(G(S_i)) where
// Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) is the second-order central finite
// difference of the block-score sequence. The returned kˆ is the number of
// blocks to keep (1-based). Sequences shorter than 3 cannot form a second
// difference and are kept whole.
func TruncatingPoint(scores []float64) int {
	if len(scores) < 3 {
		return len(scores)
	}
	best, bestVal := 1, math.Inf(1)
	for i := 1; i+1 < len(scores); i++ {
		// 2*x is exact, so fusing it would not change d2; the float64()
		// spells out, as the Go spec defines, that it is never fused.
		d2 := scores[i+1] - float64(2*scores[i]) + scores[i-1]
		if d2 < bestVal {
			bestVal = d2
			best = i
		}
	}
	return best + 1 // keep blocks 0..best inclusive
}

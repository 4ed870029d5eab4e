// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V) on the synthetic JD.com workload. Each experiment
// is a named runner producing a structured result that renders to text
// (tables plus ASCII figures); cmd/repro drives them, and
// experiments_test.go runs each at a small scale.
package experiments

import (
	"fmt"
	"sync"

	"ensemfdet/internal/core"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/eval"
	"ensemfdet/internal/fdet"
)

// Scale shrinks the paper's experimental setup to the host machine. The
// paper's own values are Graph=1.0 (Table I sizes), N=80, TMax=40,
// FraudarK=30.
type Scale struct {
	// Graph is the fraction of Table I node/edge counts to synthesize.
	Graph float64
	// N is the ensemble size (paper: 80).
	N int
	// TMax bounds the vote-threshold sweep of Figure 9 (paper: 40).
	TMax int
	// FraudarK is the baseline's block count (paper: 30).
	FraudarK int
	// SpectralRank is the component count for SPOKEN/FBOX (paper: 25).
	SpectralRank int
	// Seed drives dataset generation and all samplers.
	Seed int64
	// Parallelism caps ensemble workers; 0 = GOMAXPROCS.
	Parallelism int
}

// Default returns the cmd/repro scale: a faithful miniature of the paper's
// setup (all parameter values literal, graphs at 2% of Table I).
func Default() Scale {
	return Scale{Graph: 0.02, N: 80, TMax: 40, FraudarK: 30, SpectralRank: 25, Seed: 7}
}

// Env caches generated datasets so a sequence of experiments reuses them,
// exactly as the paper evaluates every method on the same three datasets.
type Env struct {
	Scale Scale

	mu       sync.Mutex
	datasets map[datagen.PresetID]*datagen.Dataset
}

// NewEnv returns an Env for the given scale.
func NewEnv(s Scale) *Env {
	return &Env{Scale: s, datasets: make(map[datagen.PresetID]*datagen.Dataset)}
}

// Dataset returns the cached synthetic analogue of the given Table I
// dataset, generating it on first use.
func (e *Env) Dataset(id datagen.PresetID) (*datagen.Dataset, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.datasets[id]; ok {
		return ds, nil
	}
	ds, err := datagen.GeneratePreset(id, e.Scale.Graph, e.Scale.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %v: %w", id, err)
	}
	e.datasets[id] = ds
	return ds, nil
}

// EnsembleConfig returns the paper's main operating configuration (§V-C1:
// S=0.1, N=80, RES) adjusted to the scale.
func (e *Env) EnsembleConfig() core.Config {
	return core.Config{
		NumSamples:  e.Scale.N,
		SampleRatio: 0.1,
		Seed:        e.Scale.Seed,
		Parallelism: e.Scale.Parallelism,
	}
}

// VoteCurve sweeps the MVA threshold T over 1..NumSamples and evaluates each
// detection set — the operating curve EnsemFDet contributes to every figure.
// Points that detect nothing are dropped.
func VoteCurve(votes *core.Votes, labels *eval.Labels) eval.Curve {
	var curve eval.Curve
	for t := 1; t <= votes.NumSamples; t++ {
		det := votes.AcceptUsers(t)
		if len(det) == 0 {
			continue
		}
		m := eval.Evaluate(labels, det)
		curve = append(curve, eval.CurvePoint{Metrics: m})
	}
	return curve
}

// fixKOptions returns FDET options for the ENSEMFDET-FIX-K ablation.
func (e *Env) fixKOptions() fdet.Options {
	return fdet.Options{FixedK: e.Scale.FraudarK}
}

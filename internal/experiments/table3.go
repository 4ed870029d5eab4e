package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"ensemfdet/internal/core"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/fraudar"
)

// PaperParallelism is the worker count the paper's deployment assumes: with
// N=80 sampled graphs processed simultaneously ("we will apply FDET to all
// sampled graphs simultaneously with the multicore environment"), wall time
// is the serial sample work divided by N.
const PaperParallelism = 80

// Table3Row is one dataset's timing comparison.
type Table3Row struct {
	Dataset string
	Edges   int
	// Measured wall-clock on this machine.
	EnsemFDet time.Duration // S=0.1
	Fraudar   time.Duration // K blocks on the full graph
	SpeedupX  float64
	// Projected wall time and speedup with the paper's one-core-per-sample
	// deployment.
	Projected         time.Duration
	ProjectedSpeedupX float64
	// The S=0.01 run backing the paper's "up to 100x faster" claim.
	Projected001        time.Duration
	Projected001Speedup float64
}

// Table3Result reproduces Table III: running time of ENSEMFDET vs FRAUDAR.
type Table3Result struct {
	N        int
	FraudarK int
	Rows     []Table3Row
}

// RunTable3 times both heuristics on all three datasets. Wall-clock numbers
// are machine-specific; the claims under test are the ratios — paper: ≥10×
// at S=0.1 and up to 100× at S=0.01, *given one core per sample*. On hosts
// with few cores the measured ratio shrinks accordingly, so the projected
// columns normalize to the paper's deployment.
func RunTable3(env *Env) (*Table3Result, error) {
	res := &Table3Result{N: env.Scale.N, FraudarK: env.Scale.FraudarK}
	for _, id := range datagen.AllPresets() {
		ds, err := env.Dataset(id)
		if err != nil {
			return nil, err
		}
		cfg := env.EnsembleConfig()

		start := time.Now()
		out, err := core.Run(ds.Graph, cfg)
		if err != nil {
			return nil, err
		}
		ensemDur := time.Since(start)

		cfg001 := cfg
		cfg001.SampleRatio = 0.01
		out001, err := core.Run(ds.Graph, cfg001)
		if err != nil {
			return nil, err
		}

		start = time.Now()
		fraudar.Detect(ds.Graph, fraudar.Config{K: env.Scale.FraudarK})
		fraudarDur := time.Since(start)

		workers := env.Scale.N
		if workers > PaperParallelism {
			workers = PaperParallelism
		}
		projected := out.TotalWork() / time.Duration(workers)
		projected001 := out001.TotalWork() / time.Duration(workers)

		res.Rows = append(res.Rows, Table3Row{
			Dataset:             ds.Name,
			Edges:               ds.Graph.NumEdges(),
			EnsemFDet:           ensemDur,
			Fraudar:             fraudarDur,
			SpeedupX:            ratio(fraudarDur, ensemDur),
			Projected:           projected,
			ProjectedSpeedupX:   ratio(fraudarDur, projected),
			Projected001:        projected001,
			Projected001Speedup: ratio(fraudarDur, projected001),
		})
	}
	return res, nil
}

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Render implements the experiment report.
func (r *Table3Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "TABLE III — TIME CONSUMPTION: ENSEMFDET (S=0.1, N=%d) vs FRAUDAR (K=%d)\n", r.N, r.FraudarK)
	fmt.Fprintf(w, "(projected columns model the paper's one-core-per-sample deployment)\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dataset\tEdges\tFraudar\tEnsemFDet(wall)\tspeedup\tEnsemFDet(projected)\tspeedup\tS=0.01(projected)\tspeedup")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%.1fx\t%v\t%.1fx\t%v\t%.1fx\n",
			row.Dataset, row.Edges,
			row.Fraudar.Round(time.Millisecond),
			row.EnsemFDet.Round(time.Millisecond), row.SpeedupX,
			row.Projected.Round(time.Microsecond), row.ProjectedSpeedupX,
			row.Projected001.Round(time.Microsecond), row.Projected001Speedup)
	}
	return tw.Flush()
}

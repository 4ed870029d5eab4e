package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ensemfdet"
	"ensemfdet/internal/core"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/sampling"
)

// batchCold is the paper's use: a library user reads an edge list and runs
// the whole ensemble on it, as cmd/ensemfdet does. One caller; the run itself
// uses every core. fdet does about nine tenths of the work and stream,
// persist and serve do none, so a peeler change shows here first and an
// ingest-side change must not show at all.
//
// Set-up generates the dataset, writes the edge-list file and runs one
// warm-up operation. Primary operation: NewDetector(RES, N=80, S=0.1).Votes +
// majority vote at N/2 (the body of Detector.Detect, split so the votes stay
// available for the checks). Secondary: ReadGraph on the in-memory edge list.
// recover_s is the batch user's only restart path: ReadGraphFile on the
// edge-list file.
type batchCold struct {
	ds         *datagen.Dataset
	tsv        []byte
	path       string
	heapInputs uint64

	graph *ensemfdet.Graph
	votes *ensemfdet.Votes
	seed  int64 // ensemble seed of the script's last operation
}

func (w *batchCold) setup(e *env) error {
	ds, err := generate(datagen.Dataset1, e.sz.BatchScale, e.seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ensemfdet.WriteGraph(&buf, ds.Graph); err != nil {
		return err
	}
	w.ds, w.tsv = ds, buf.Bytes()
	w.path = filepath.Join(e.dir, "batch_cold.tsv")
	if err := os.WriteFile(w.path, w.tsv, 0o644); err != nil {
		return err
	}
	w.heapInputs = liveHeap()
	// Warm-up: one operation off the script's clock, so the first block does
	// not pay for the process's first touch of its arenas. It also makes
	// set-up long enough to read: generating the dataset alone takes a tenth
	// of a second, which on this host repeats to no better than a third.
	_, _, err = w.operation(e, 0)
	return err
}

func (w *batchCold) teardown() error {
	if w.path == "" {
		return nil
	}
	err := os.Remove(w.path)
	w.path = ""
	return err
}

// operation is what a batch user runs: read the edge list, run the ensemble
// with seed+n, take the majority vote. It keeps the graph and the votes for
// the closing checks.
func (w *batchCold) operation(e *env, n int64) (load, detect time.Duration, err error) {
	// Each operation is a fresh process to a batch user; collecting the
	// previous one's garbage outside the clock keeps an operation from
	// paying for its predecessor's heap.
	runtime.GC()
	t0 := time.Now()
	var g *ensemfdet.Graph
	err = e.rec.timed(spanLoad, n, func() (err error) {
		g, err = ensemfdet.ReadGraph(bytes.NewReader(w.tsv))
		return err
	})
	if !e.op(err) {
		return 0, 0, err
	}
	load = time.Since(t0)

	w.seed = e.seed + n
	t0 = time.Now()
	var votes *ensemfdet.Votes
	err = e.rec.timed(spanDetect, n, func() error {
		det, err := ensemfdet.NewDetector(ensemfdet.Config{
			Sampler: ensemfdet.RandomEdgeSampling, NumSamples: ensembleN, SampleRatio: ensembleS, Seed: w.seed,
		})
		if err != nil {
			return err
		}
		if votes, err = det.Votes(g); err != nil {
			return err
		}
		_, _ = votes.AcceptUsers(ensembleN/2), votes.AcceptMerchants(ensembleN/2)
		return nil
	})
	if !e.op(err) {
		return 0, 0, err
	}
	detect = time.Since(t0)
	want := w.ds.Graph.NumEdges()
	e.check(g.NumEdges() == want, "operation %d loaded %d edges, the dataset has %d", n, g.NumEdges(), want)
	e.check(votes.MaxUserVotes() > 0, "operation %d: no user received a vote", n)
	w.graph, w.votes = g, votes
	return load, detect, nil
}

// script is BatchOps operations with ensemble seeds seed+1, seed+2, ...; each
// is a block.
func (w *batchCold) script(e *env) (blocks, error) {
	bl := blocks{edges: e.sz.BatchOps * w.ds.Graph.NumEdges()}
	e.rec.begin()
	for i := 1; i <= e.sz.BatchOps; i++ {
		if err := e.ctx.Err(); err != nil {
			return bl, err
		}
		load, detect, err := w.operation(e, int64(i))
		if err != nil {
			return bl, err
		}
		bl.wall = append(bl.wall, load+detect)
		bl.primary = append(bl.primary, detect)
		bl.secondary = append(bl.secondary, load)
	}
	e.rec.end()
	return bl, nil
}

func (w *batchCold) finish(e *env) error {
	e.e2e["heap_live_mb"] = heapMB(liveHeap(), w.heapInputs)
	e.notef("primary = Detector.Votes + MVA, secondary = ReadGraph, %d of each a repetition, graph %v", e.sz.BatchOps, w.graph)

	wantEdges := w.ds.Graph.NumEdges()
	reload, err := recoverRounds(e, func(i int) (time.Duration, error) {
		t0 := time.Now()
		g, err := ensemfdet.ReadGraphFile(w.path)
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		e.check(g.NumEdges() == wantEdges, "reload %d read %d edges, the dataset has %d", i, g.NumEdges(), wantEdges)
		return d, nil
	})
	if err != nil {
		return err
	}
	e.e2e["recover_s"] = reload.Seconds()

	// Determinism in the worker count is the contract that lets the ensemble
	// use every core: the same seed single-threaded must vote identically.
	serial, err := core.Run(w.graph, core.Config{
		Method: sampling.RandomEdge{}, NumSamples: ensembleN, SampleRatio: ensembleS, Seed: w.seed, Parallelism: 1,
	})
	if e.op(err) {
		got, want := votesDigest(w.votes), votesDigest(&serial.Votes)
		e.check(got == want, "votes digest %s at default parallelism, %s at Parallelism=1", got, want)
	}
	f1 := f1Max(w.votes, w.ds.Labels)
	e.check(f1 >= f1Floor, "f1_max %.4f is below the floor %.2f", f1, f1Floor)
	e.notef("f1_max %.4f (votes digest %s)", f1, votesDigest(w.votes))
	return nil
}

func (w *batchCold) layers(e *env, a *analysis) error {
	if err := loadLayers(w.tsv, e.layer); err != nil {
		return err
	}
	if err := replayLayers(w.graph, sampling.RandomEdge{}, w.seed, w.ds.Labels, e.layer); err != nil {
		return err
	}
	var load, detect time.Duration
	a.each(spanLoad, func(i int) { load += a.spans[i].dur() })
	a.each(spanDetect, func(i int) { detect += a.spans[i].dur() })
	e.layer["trace.attributed_share"] = ratio((load + detect).Seconds(), e.e2e["wall_s"])
	e.notef("layer busy: bipartite (read+build) %.3fs, core.detect %.3fs of wall %.3fs; inside core.detect the replay splits sample work %.0f%% fdet / %.0f%% sampling+induce",
		load.Seconds(), detect.Seconds(), e.e2e["wall_s"],
		100*e.layer["fdet.share_of_sample_work"], 100*(1-e.layer["fdet.share_of_sample_work"]))
	return nil
}

package main

import (
	"fmt"
	"math"
)

// referenceSeconds is the -seconds value the sizes below were calibrated
// against on the 2-core reference host: one repetition (set-up and script)
// lasts eight to nine seconds there, and at -seconds 30 a run makes three.
// -seconds scales the number of repetitions; a run stops early only when
// the next one would end past twice -seconds (a host several times slower
// than the reference). Graph sizes and scripts never change with -seconds.
const referenceSeconds = 30

// Ensemble settings shared by every workload: the paper's main operating
// point (Section V-C1).
const (
	ensembleN = 80
	ensembleS = 0.1
)

const (
	// ingestClients is serve_ingest's closed-loop client count, capped at the
	// core count: more clients than cores would measure the scheduler.
	ingestClients = 2
	// preloadBatch is the Engine.Ingest batch size of the serve workloads'
	// set-up preload.
	preloadBatch = 4096
)

// sizes freezes one scale's constants. Every field is printed with the
// result so a number can always be traced to the work that produced it.
type sizes struct {
	Scale string `json:"scale"`
	// Reps is how many times a run sets up a fresh instance and runs the
	// script on it, unless twice -seconds run out first. setup_s is the median
	// set-up, and every block of the script is read at its quietest
	// repetition. A traced run makes one.
	Reps int `json:"repetitions"`
	// Recoveries is the least number of Open+Recover (or re-load) rounds
	// recover_s is read from; short recoveries repeat further (see
	// recoverRounds).
	Recoveries int `json:"recoveries"`

	// batch_cold: Dataset1 preset at BatchScale; set-up ends with one warm-up
	// operation and the script is BatchOps load+detect operations, each a
	// block.
	BatchScale float64 `json:"batch_cold.dataset1_scale"`
	BatchOps   int     `json:"batch_cold.ops"`

	// serve_ingest: ingestClients closed-loop clients send IngestRequests
	// fresh IngestBatch-edge batches drawn from the shuffled Dataset3 preset
	// (scaled to hold exactly that many edges); one request in
	// IngestReplayEvery is additionally a replay of an earlier batch. The
	// request sequence is cut into IngestBlocks blocks.
	IngestBatch         int   `json:"serve_ingest.batch_edges"`
	IngestRequests      int   `json:"serve_ingest.fresh_requests"`
	IngestBlocks        int   `json:"serve_ingest.blocks"`
	IngestReplayEvery   int   `json:"serve_ingest.replay_every"`
	IngestSnapshotBytes int64 `json:"serve_ingest.snapshot_every_bytes"`

	// serve_incremental: preload Dataset1 at IncScale and warm one cold
	// detect (set-up); the script is IncRounds rounds of burst + detect miss
	// + detect hit, each a block.
	IncScale     float64 `json:"serve_incremental.dataset1_scale"`
	IncRounds    int     `json:"serve_incremental.rounds"`
	IncBurstFrac float64 `json:"serve_incremental.burst_users_per_edge"`

	// serve_window: Dataset1 at WinScale; the last WinRounds*WinBatches*
	// WinBatch shuffled edges are held out as the fresh stream, the rest is
	// the preload and the MaxEdges cap. A round (WinBatches batches and a
	// detect) is a block.
	WinScale   float64 `json:"serve_window.dataset1_scale"`
	WinRounds  int     `json:"serve_window.rounds"`
	WinBatches int     `json:"serve_window.batches_per_round"`
	WinBatch   int     `json:"serve_window.batch_edges"`
}

// scales holds the reference sizes and the tiny preset bench_test.go uses to
// run every workload inside `go test ./...`.
var scales = map[string]sizes{
	"full": {
		Scale: "full", Reps: 3, Recoveries: 5,
		BatchScale: 0.25, BatchOps: 4,
		IngestBatch: 128, IngestRequests: 20000, IngestBlocks: 20, IngestReplayEvery: 20, IngestSnapshotBytes: 16 << 20,
		IncScale: 0.25, IncRounds: 39, IncBurstFrac: 0.001,
		WinScale: 0.125, WinRounds: 15, WinBatches: 16, WinBatch: 128,
	},
	"tiny": {
		Scale: "tiny", Reps: 2, Recoveries: 2,
		BatchScale: 0.01, BatchOps: 2,
		IngestBatch: 64, IngestRequests: 200, IngestBlocks: 4, IngestReplayEvery: 10, IngestSnapshotBytes: 32 << 10,
		IncScale: 0.01, IncRounds: 6, IncBurstFrac: 0.002,
		WinScale: 0.01, WinRounds: 3, WinBatches: 4, WinBatch: 64,
	},
}

// sizesFor returns the named scale with its repetitions scaled to the
// requested measuring time.
func sizesFor(scale string, seconds int) (sizes, error) {
	sz, ok := scales[scale]
	if !ok {
		return sizes{}, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
	}
	if seconds < 1 {
		return sizes{}, fmt.Errorf("-seconds must be at least 1, got %d", seconds)
	}
	sz.Reps = max(1, int(math.Round(float64(sz.Reps)*float64(seconds)/referenceSeconds)))
	return sz, nil
}

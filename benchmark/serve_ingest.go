package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/stream"
)

// serveIngest is the write path: closed-loop clients (upstream services that
// wait for the ack) POST fresh batches to /v1/edges under fsync=always, with
// an occasional replay of an earlier batch. serve (transport, JSON,
// admission), stream (append, dedup) and persist (WAL write, fsync,
// background snapshots) do all the work and fdet none. It is the only
// workload with concurrent writers, so it is where WAL group commit can show,
// and its recoveries read the bytes this ingest wrote, so a write-side format
// gain that costs replay shows too.
//
// Primary operation: POST of a fresh batch (journaled and fsynced).
// Secondary: POST of a replayed batch (all duplicates: no version bump, no
// WAL record). recover_s: Open+Recover on a copy of the synced data dir.
type serveIngest struct {
	st         *stack
	bodies     [][]byte
	firsts     []bipartite.Edge
	schedule   []int // body index per request, replays included
	replay     []bool
	edges      int // distinct edges the schedule carries
	clients    int
	heapInputs uint64

	from, to counters // the layers' counters around the timed phase
}

func (w *serveIngest) setup(e *env) error {
	need := e.sz.IngestRequests * e.sz.IngestBatch
	// Dataset3 holds 7,997,696 edges at scale 1; ask for a tenth more than
	// needed, since dedup inside the generator loses a few.
	scale := min(1, 1.1*float64(need)/7_997_696)
	ds, err := generate(datagen.Dataset3, scale, e.seed)
	if err != nil {
		return err
	}
	edges := shuffled(ds, e.seed)
	if len(edges) < need {
		need = len(edges) / e.sz.IngestBatch * e.sz.IngestBatch
	}
	edges = edges[:need]
	rng := rand.New(rand.NewSource(e.seed ^ 0x1A6E57))
	// A replayed batch was acknowledged a while before, yet the first block
	// already holds replays.
	replayLag := min(64, e.sz.IngestRequests/e.sz.IngestBlocks/2)
	for i := 0; i*e.sz.IngestBatch < need; i++ {
		b := edges[i*e.sz.IngestBatch : (i+1)*e.sz.IngestBatch]
		w.bodies = append(w.bodies, renderEdges(b))
		w.firsts = append(w.firsts, b[0])
		w.schedule = append(w.schedule, i)
		w.replay = append(w.replay, false)
		if (i+1)%e.sz.IngestReplayEvery == 0 && i >= replayLag {
			w.schedule = append(w.schedule, rng.Intn(i-replayLag+1))
			w.replay = append(w.replay, true)
		}
	}
	w.edges = need
	w.clients = min(ingestClients, runtime.NumCPU())
	w.heapInputs = liveHeap()
	w.st, err = newStack(e.dir, stream.WindowPolicy{}, e.sz.IngestSnapshotBytes, e.rec)
	return err
}

func (w *serveIngest) teardown() error {
	if w.st == nil {
		return nil
	}
	err := w.st.close()
	w.st = nil
	return err
}

// script sends the whole schedule once and cuts it into IngestBlocks blocks
// of consecutive requests.
func (w *serveIngest) script(e *env) (blocks, error) {
	type tally struct {
		added, dups          int
		attempted, ok, fails int
		firstErr             error
	}
	tallies := make([]tally, w.clients)
	// Per request, written by whichever client drew it: when the reply was
	// read (since the script's start) and how long the exchange took.
	ends := make([]time.Duration, len(w.schedule))
	lats := make([]time.Duration, len(w.schedule))
	var next atomic.Int64
	var wg sync.WaitGroup
	w.from = w.st.counters()
	e.rec.begin()
	start := time.Now()
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for e.ctx.Err() == nil {
				k := int(next.Add(1)) - 1
				if k >= len(w.schedule) {
					return
				}
				b := w.schedule[k]
				rep, lat, err := w.st.postEdges(e.ctx, w.bodies[b], w.firsts[b])
				ends[k], lats[k] = time.Since(start), lat
				t.attempted++
				if err != nil {
					t.fails++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.ok++
				t.added += rep.Added
				t.dups += rep.Duplicates
			}
		}(&tallies[c])
	}
	wg.Wait()
	e.rec.end()
	w.to = w.st.counters()
	if err := e.ctx.Err(); err != nil {
		return blocks{}, err
	}

	var all tally
	for _, t := range tallies {
		all.added += t.added
		all.dups += t.dups
		all.ok += t.ok
		e.attempted += t.attempted
		e.failed += t.fails
		if t.firstErr != nil {
			e.notef("FAILED: %d requests, first: %v", t.fails, t.firstErr)
		}
	}
	// A block ends when the last of its requests is answered and starts when
	// the block before it ended.
	bl := blocks{edges: len(w.schedule) * e.sz.IngestBatch}
	var prev time.Duration
	for k := 0; k < e.sz.IngestBlocks; k++ {
		lo, hi := k*len(w.schedule)/e.sz.IngestBlocks, (k+1)*len(w.schedule)/e.sz.IngestBlocks
		var fresh, replays samples
		end := prev
		for i := lo; i < hi; i++ {
			end = max(end, ends[i])
			if w.replay[i] {
				replays = append(replays, lats[i])
			} else {
				fresh = append(fresh, lats[i])
			}
		}
		if len(fresh) == 0 || len(replays) == 0 {
			return blocks{}, fmt.Errorf("block %d holds %d fresh and %d replayed requests, want both", k, len(fresh), len(replays))
		}
		bl.wall = append(bl.wall, end-prev)
		bl.primary = append(bl.primary, fresh.median())
		bl.secondary = append(bl.secondary, replays.median())
		prev = end
	}

	sent := all.ok * e.sz.IngestBatch
	e.check(all.added+all.dups == sent, "added %d + duplicates %d != %d edges sent", all.added, all.dups, sent)
	e.check(all.added == w.edges, "added %d edges, the stream carries %d distinct ones", all.added, w.edges)
	st, err := w.st.getStats(e.ctx)
	if e.op(err) {
		e.check(st.Graph.NumEdges == w.edges, "/v1/stats reports %d edges, the benchmark sent %d distinct ones", st.Graph.NumEdges, w.edges)
		e.check(st.IngestStats.Shed == 0, "%d batches were shed", st.IngestStats.Shed)
	}
	return bl, nil
}

func (w *serveIngest) finish(e *env) error {
	e.e2e["heap_live_mb"] = heapMB(liveHeap(), w.heapInputs)
	e.notef("primary = POST /v1/edges fresh batch, secondary = replayed batch; %d requests a repetition, %d clients, %d-edge batches",
		len(w.schedule), w.clients, e.sz.IngestBatch)
	rs, err := recoveries(e, w.st)
	if err != nil {
		return err
	}
	e.e2e["recover_s"] = rs.quietest.Seconds()
	e.layer["persist.recover.replayed_records"] = float64(rs.replayed)
	e.layer["persist.recover.snapshot_edges"] = float64(rs.snapEdges)
	return nil
}

func (w *serveIngest) layers(e *env, a *analysis) error {
	serveLayers(e, w.from, w.to, a, w.clients)
	return nil
}

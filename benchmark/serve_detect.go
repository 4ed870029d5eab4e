package main

import (
	"fmt"
	"sort"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/stream"
)

// serveDetect is the two detect-serving workloads; one client, closed loop.
//
// serve_incremental is steady-state detection: the graph is preloaded, one
// cold detect warms the incremental base, then every round ingests a small
// fraud burst (fresh users on one to three existing merchants) and detects.
// Each detect pays a stream delta snapshot, a Delta, core's classify and a
// re-run of only the samples the burst dirtied, so stream and core weigh
// most here and fdet about a third of its cold share. It reaches sampling and
// bipartite through the merchant-row induce path (ONS-merchant) where
// batch_cold takes the edge-id path (RES).
//
// serve_window is the same stack under churn: a MaxEdges window equal to the
// preload, so every fresh batch pushes the graph over the cap and kicks a
// retire pass. The same stream and persist layers do different work
// (deletes, tombstones, delete-aware delta builds, shard-log rewrites), so an
// append-side gain that costs the retire side shows here.
//
// Set-up preloads the graph and warms one cold detect. Primary operation:
// POST /v1/detect on a changed graph (a cache miss). Secondary: POST /v1/edges
// (the burst, or a fresh 128-edge batch). recover_s: Open+Recover on a copy of
// the synced data dir.
type serveDetect struct {
	windowed bool

	ds         *datagen.Dataset
	st         *stack
	batches    [][]bipartite.Edge // every batch in commit order, preload first
	rounds     [][]int            // per round: indices into batches/bodies to POST
	bodies     map[int][]byte
	maxEdges   int
	seed       int64
	heapInputs uint64

	reference *bipartite.Graph // the benchmark's own copy of the final graph
	from, to  counters         // the layers' counters around the timed phase
	note      string           // the script's sample counts, printed by finish
}

var onsMerchant = sampling.OneSideNode{Side: bipartite.MerchantSide}

// burstMerchants is how many existing merchants one fraud burst buys from;
// burstSkip is how many of the very busiest merchants no burst uses.
const (
	burstMerchants = 2
	burstSkip      = 16
)

func (w *serveDetect) detectBody(t int) []byte {
	return fmt.Appendf(nil, `{"t":%d,"n":%d,"s":%g,"sampler":%q,"seed":%d}`, t, ensembleN, ensembleS, onsMerchant.Name(), w.seed)
}

func (w *serveDetect) setup(e *env) error {
	scale := e.sz.IncScale
	if w.windowed {
		scale = e.sz.WinScale
	}
	ds, err := generate(datagen.Dataset1, scale, e.seed)
	if err != nil {
		return err
	}
	w.ds, w.seed = ds, e.seed
	edges := shuffled(ds, e.seed)
	w.bodies = map[int][]byte{}

	var fresh [][][]bipartite.Edge // per round, the batches to POST
	if w.windowed {
		per := e.sz.WinBatches * e.sz.WinBatch
		held := e.sz.WinRounds * per
		if held*2 > len(edges) {
			return fmt.Errorf("serve_window: %d rounds need %d fresh edges, more than half of the %d-edge dataset; lower -seconds", e.sz.WinRounds, held, len(edges))
		}
		tail := edges[len(edges)-held:]
		edges = edges[:len(edges)-held]
		w.maxEdges = len(edges)
		for r := 0; r < e.sz.WinRounds; r++ {
			var bs [][]bipartite.Edge
			for b := 0; b < e.sz.WinBatches; b++ {
				lo := r*per + b*e.sz.WinBatch
				bs = append(bs, tail[lo:lo+e.sz.WinBatch])
			}
			fresh = append(fresh, bs)
		}
	} else {
		// A burst is |E|/1000 accounts that did not exist a moment ago, all
		// buying from the same two busy merchants. Every round hits two (each
		// merchant hit dirties another tenth of the samples) and no merchant
		// is hit twice: the busiest merchants below the top burstSkip, taken
		// in order. Drawing them by edge instead made some seeds return to
		// one merchant round after round, piling dense blocks on it, and the
		// median detect differed by a third between seeds.
		deg := make([]int, ds.Graph.NumMerchants())
		for _, ed := range edges {
			deg[ed.V]++
		}
		busiest := make([]uint32, len(deg))
		for v := range busiest {
			busiest[v] = uint32(v)
		}
		sort.Slice(busiest, func(i, j int) bool {
			if deg[busiest[i]] != deg[busiest[j]] {
				return deg[busiest[i]] > deg[busiest[j]]
			}
			return busiest[i] < busiest[j]
		})
		if burstSkip+burstMerchants*e.sz.IncRounds > len(busiest) {
			return fmt.Errorf("serve_incremental: %d rounds need %d merchants, the dataset has %d", e.sz.IncRounds, burstSkip+burstMerchants*e.sz.IncRounds, len(busiest))
		}
		users := max(1, int(float64(len(edges))*e.sz.IncBurstFrac))
		nu := ds.Graph.NumUsers()
		for r := 0; r < e.sz.IncRounds; r++ {
			hot := busiest[burstSkip+burstMerchants*r:][:burstMerchants]
			var burst []bipartite.Edge
			for u := 0; u < users; u++ {
				for _, v := range hot {
					burst = append(burst, bipartite.Edge{U: uint32(nu + r*users + u), V: v})
				}
			}
			fresh = append(fresh, [][]bipartite.Edge{burst})
		}
	}
	w.heapInputs = liveHeap()

	w.st, err = newStack(e.dir, stream.WindowPolicy{MaxEdges: w.maxEdges}, 0, e.rec)
	if err != nil {
		return err
	}
	if w.batches, err = preload(w.st, edges, preloadBatch); err != nil {
		return err
	}
	for _, bs := range fresh {
		var idx []int
		for _, b := range bs {
			w.bodies[len(w.batches)] = renderEdges(b)
			idx = append(idx, len(w.batches))
			w.batches = append(w.batches, b)
		}
		w.rounds = append(w.rounds, idx)
	}
	// Warm-up: the first detect is cold by construction (no base to resume
	// from); users of a long-running daemon do not pay it per request.
	rep, warm, err := w.st.postDetect(e.ctx, w.detectBody(ensembleN/2))
	if !e.op(err) {
		return err
	}
	e.check(!rep.Cached, "warm-up detect was served from cache")
	e.notef("warm-up cold detect %.1f ms", ms(warm))
	return nil
}

func (w *serveDetect) teardown() error {
	if w.st == nil {
		return nil
	}
	err := w.st.close()
	w.st = nil
	return err
}

// script runs the rounds; each is a block.
func (w *serveDetect) script(e *env) (blocks, error) {
	miss, hit := w.detectBody(ensembleN/2), w.detectBody(ensembleN/4)
	var bl blocks
	var hits samples
	incremental := 0
	w.from = w.st.counters()
	e.rec.begin()
	for r, round := range w.rounds {
		if err := e.ctx.Err(); err != nil {
			return bl, err
		}
		start := time.Now()
		var posts samples
		for _, b := range round {
			rep, lat, err := w.st.postEdges(e.ctx, w.bodies[b], w.batches[b][0])
			posts = append(posts, lat)
			if e.op(err) {
				bl.edges += rep.Added + rep.Duplicates
				e.check(rep.Added == len(w.batches[b]), "round %d: batch added %d of %d distinct edges", r, rep.Added, len(w.batches[b]))
			}
		}
		rep, lat, err := w.st.postDetect(e.ctx, miss)
		if e.op(err) {
			if rep.Incremental {
				incremental++
			}
			e.check(!rep.Cached, "round %d: detect on a changed graph was served from cache", r)
		}
		if !w.windowed {
			rep, lat, err := w.st.postDetect(e.ctx, hit)
			if e.op(err) {
				hits = append(hits, lat)
				e.check(rep.Cached, "round %d: second threshold on an unchanged graph re-ran the ensemble", r)
			}
		}
		bl.wall = append(bl.wall, time.Since(start))
		bl.primary = append(bl.primary, lat)
		bl.secondary = append(bl.secondary, posts.median())
	}
	e.rec.end()
	w.to = w.st.counters()
	w.note = fmt.Sprintf("primary = POST /v1/detect miss (n=%d a repetition, p90 %.1f ms, %d incremental), secondary = POST /v1/edges (%d a round), cached detect p50 %.3f ms (n=%d)",
		len(bl.primary), ms(bl.primary.quantile(0.9)), incremental, len(w.rounds[0]), ms(hits.median()), len(hits))
	if !w.windowed {
		e.check(incremental*10 >= len(w.rounds)*9, "%d of %d misses ran incrementally, want at least 90%%", incremental, len(w.rounds))
	}
	return bl, nil
}

func (w *serveDetect) finish(e *env) error {
	e.e2e["heap_live_mb"] = heapMB(liveHeap(), w.heapInputs)
	e.notef("%s", w.note)
	if w.windowed {
		// One synchronous pass lands the graph exactly on the cap, so the
		// final votes are a function of the ingest history alone.
		if res, ok := w.st.engine.RetireNow(); !ok || res.Err != nil {
			e.check(false, "final retire pass: ok=%v err=%v", ok, res.Err)
		}
	}
	if err := w.checkVotes(e); err != nil {
		return err
	}
	rs, err := recoveries(e, w.st)
	if err != nil {
		return err
	}
	e.e2e["recover_s"] = rs.quietest.Seconds()
	e.layer["persist.recover.replayed_records"] = float64(rs.replayed)
	e.layer["persist.recover.snapshot_edges"] = float64(rs.snapEdges)
	return nil
}

// checkVotes holds the served votes to the byte-identical contract: GET
// /v1/votes must equal a cold core.Run on a graph built from the benchmark's
// own record of what is live.
func (w *serveDetect) checkVotes(e *env) error {
	live := windowModel(w.batches, w.maxEdges)
	g, out, err := coldReference(live, onsMerchant, w.seed)
	if !e.op(err) {
		return err
	}
	w.reference = g
	query := fmt.Sprintf("n=%d&s=%g&sampler=%s&seed=%d", ensembleN, ensembleS, onsMerchant.Name(), w.seed)
	got, err := w.st.getVotes(e.ctx, query)
	if !e.op(err) {
		return err
	}
	e.check(sameRanking(got.Users, ranked(out.Votes.User)) && sameRanking(got.Merchants, ranked(out.Votes.Merchant)),
		"/v1/votes (%d users, %d merchants voted) differs from a cold core.Run on the benchmark's live set of %d edges (%d, %d)",
		len(got.Users), len(got.Merchants), len(live), len(ranked(out.Votes.User)), len(ranked(out.Votes.Merchant)))
	f1 := f1Max(&out.Votes, w.ds.Labels)
	e.check(f1 >= f1Floor, "f1_max %.4f is below the floor %.2f", f1, f1Floor)
	e.notef("f1_max %.4f (votes digest %s, %d live edges)", f1, votesDigest(&out.Votes), len(live))
	return nil
}

func (w *serveDetect) layers(e *env, a *analysis) error {
	serveLayers(e, w.from, w.to, a, 1)
	return replayLayers(w.reference, onsMerchant, w.seed, w.ds.Labels, e.layer)
}

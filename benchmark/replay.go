package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/density"
	"ensemfdet/internal/eval"
	"ensemfdet/internal/experiments"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/serve"
)

// votesDigest hashes a vote vector; two runs agree byte for byte iff their
// digests do.
func votesDigest(v *core.Votes) string {
	h := sha256.New()
	var b [8]byte
	put := func(xs []int) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(xs)))
		h.Write(b[:])
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	put(v.User)
	put(v.Merchant)
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// csrDigest hashes a graph's canonical on-disk bytes.
func csrDigest(g *bipartite.Graph) (string, error) {
	h := sha256.New()
	if err := bipartite.WriteCSR(h, g); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// f1Max is the best F1 over vote thresholds against the dataset blacklist.
func f1Max(v *core.Votes, labels *eval.Labels) float64 {
	return experiments.VoteCurve(v, labels).MaxF1().Metrics.F1
}

// ranked is the /v1/votes ordering (votes descending, id ascending) of every
// node with at least one vote.
func ranked(votes []int) []serve.NodeVotes {
	out := make([]serve.NodeVotes, 0, 64)
	for id, n := range votes {
		if n >= 1 {
			out = append(out, serve.NodeVotes{ID: uint32(id), Votes: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Votes != out[j].Votes {
			return out[i].Votes > out[j].Votes
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func sameRanking(a, b []serve.NodeVotes) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// structureSeed fixes what a preset plants: how many fraud groups and
// communities, their sizes, densities and camouflage. The run's seed draws
// everything else (which users and merchants, every edge, the blacklist
// noise, arrival order, ensemble seeds). Sizing the planted structure from
// the run's seed too would make the amount of peeling work differ from seed
// to seed by more than any change the benchmark is meant to detect.
const structureSeed = 7

// generate realizes a preset at the given scale under the run's seed.
func generate(id datagen.PresetID, scale float64, seed int64) (*datagen.Dataset, error) {
	cfg, err := datagen.Preset(id, scale, structureSeed)
	if err != nil {
		return nil, err
	}
	cfg.Seed = seed
	return datagen.Generate(cfg)
}

// shuffled returns the dataset's edges in a seed-determined arrival order.
func shuffled(ds *datagen.Dataset, seed int64) []bipartite.Edge {
	edges := ds.Graph.EdgeList()
	rng := rand.New(rand.NewSource(seed ^ 0x5EED_ED6E))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// sideSizes is the stream graph's notion of |U| and |V|: one past the
// largest id ever ingested.
func sideSizes(edges []bipartite.Edge) (nu, nm int) {
	for _, e := range edges {
		nu = max(nu, int(e.U)+1)
		nm = max(nm, int(e.V)+1)
	}
	return nu, nm
}

// coldReference runs the ensemble cold on the benchmark's own copy of the
// live edge set: the byte-identical contract says the served votes, however
// they were produced (incremental, delta-built snapshots, retired edges),
// must equal it.
func coldReference(live []bipartite.Edge, method sampling.Method, seed int64) (*bipartite.Graph, *core.Output, error) {
	nu, nm := sideSizes(live)
	g, err := bipartite.FromEdges(nu, nm, live)
	if err != nil {
		return nil, nil, err
	}
	out, err := core.Run(g, core.Config{Method: method, NumSamples: ensembleN, SampleRatio: ensembleS, Seed: seed})
	return g, out, err
}

// replayLayers fills the core, sampling, bipartite-induce and fdet metrics.
// A detect's internals cannot be interposed from outside core.Run, so the
// traced run replays the ensemble on the workload's graph single-threaded,
// timing the same public calls core.Run makes per sample, and runs core.Run
// itself directly for the whole-run numbers. The replay's votes must equal
// core.Run's, or the layer numbers would describe a different computation.
func replayLayers(g *bipartite.Graph, method sampling.Method, seed int64, labels *eval.Labels, m metrics) error {
	start := time.Now()
	out, err := core.Run(g, core.Config{Method: method, NumSamples: ensembleN, SampleRatio: ensembleS, Seed: seed})
	if err != nil {
		return err
	}
	run := time.Since(start)
	m["core.run.p50_ms"] = ms(run) // one run: the traced run's time budget buys no more
	m["core.run.work_ms"] = ms(out.TotalWork())
	m["core.run.parallel_efficiency"] = ratio(float64(out.TotalWork()), float64(run)*float64(runtime.GOMAXPROCS(0)))
	m["core.run.peel_rounds"] = float64(out.PeelRounds)
	m["core.f1_max"] = f1Max(&out.Votes, labels)

	weights := density.Default().MerchantWeights(g)
	var (
		samp       sampling.Scratch
		arena      bipartite.Arena
		det        fdet.Scratch
		local      []float64
		ids        []int
		drawn      []uint32
		tSample    time.Duration
		tInduce    time.Duration
		tDetect    time.Duration
		rounds     int
		edges      int
		edgeRounds int64
		votes      = core.Votes{User: make([]int, g.NumUsers()), Merchant: make([]int, g.NumMerchants()), NumSamples: ensembleN}
		seenU      = map[uint32]bool{}
		seenV      = map[uint32]bool{}
	)
	for i := 0; i < ensembleN; i++ {
		// core.Run's per-sample stream: seeded by (Seed, i) only.
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*2_654_435_761 + 1))
		t0 := time.Now()
		sg := sampling.SampleInto(method, g, ensembleS, rng, &samp)
		tSample += time.Since(t0)

		// The matching induce on the same draw, in a second arena.
		var again *bipartite.Subgraph
		switch method.(type) {
		case sampling.RandomEdge:
			ids = parentEdgeIDs(g, sg, ids[:0])
			t0 = time.Now()
			again = g.InducedByEdgeIDsArena(&arena, ids)
		case sampling.OneSideNode:
			p, _ := samp.LastDraw()
			drawn = append(drawn[:0], p...)
			t0 = time.Now()
			again = g.InducedByMerchantsArena(&arena, drawn)
		default:
			return fmt.Errorf("replay: no induce path for sampler %s", method.Name())
		}
		tInduce += time.Since(t0)
		if again.NumEdges() != sg.NumEdges() {
			return fmt.Errorf("replay: sample %d re-induced %d edges, drew %d", i, again.NumEdges(), sg.NumEdges())
		}

		local = local[:0]
		for lv := 0; lv < sg.NumMerchants(); lv++ {
			local = append(local, weights[sg.ParentMerchant(uint32(lv))])
		}
		t0 = time.Now()
		res := det.Detect(sg.Graph, fdet.Options{MerchantWeights: local})
		tDetect += time.Since(t0)

		rounds += len(res.Scores)
		edges += sg.NumEdges()
		edgeRounds += int64(sg.NumEdges()) * int64(len(res.Scores))
		clear(seenU)
		clear(seenV)
		for _, blk := range res.Blocks {
			for _, lu := range blk.Users {
				if pu := sg.ParentUser(lu); !seenU[pu] {
					seenU[pu] = true
					votes.User[pu]++
				}
			}
			for _, lv := range blk.Merchants {
				if pv := sg.ParentMerchant(lv); !seenV[pv] {
					seenV[pv] = true
					votes.Merchant[pv]++
				}
			}
		}
	}
	if got, want := votesDigest(&votes), votesDigest(&out.Votes); got != want {
		return fmt.Errorf("replay votes %s differ from core.Run votes %s", got, want)
	}
	n := float64(ensembleN)
	m["sampling.sample_into.us_per_sample"] = us(tSample) / n
	m["bipartite.induce.us_per_sample"] = us(tInduce) / n
	m["sampling.draw.us_per_sample"] = max(0, us(tSample-tInduce)/n)
	m["bipartite.subgraph.edges_mean"] = float64(edges) / n
	m["fdet.detect.us_per_sample"] = us(tDetect) / n
	m["fdet.rounds_per_sample"] = float64(rounds) / n
	m["fdet.ns_per_edge_round"] = ratio(float64(tDetect), float64(edgeRounds))
	m["fdet.share_of_sample_work"] = ratio(float64(tDetect), float64(tSample+tDetect))
	return nil
}

// parentEdgeIDs recovers the sorted parent edge ids a RES subgraph was drawn
// from (the sampler keeps its draw private): each local edge maps back to a
// parent (user, merchant) pair, whose id is its position in the parent's
// user-major CSR.
func parentEdgeIDs(g *bipartite.Graph, sg *bipartite.Subgraph, ids []int) []int {
	for lu := 0; lu < sg.NumUsers(); lu++ {
		pu := sg.ParentUser(uint32(lu))
		start, end := g.UserRowRange(pu)
		for _, lv := range sg.UserNeighbors(uint32(lu)) {
			pv := sg.ParentMerchant(lv)
			k := start + sort.Search(end-start, func(i int) bool { return g.UserAdjAt(start+i) >= pv })
			ids = append(ids, k)
		}
	}
	sort.Ints(ids)
	return ids
}

// loadLayers times the two halves of reading an edge list (parse, CSR build)
// that the facade's ReadGraph fuses.
func loadLayers(tsv []byte, m metrics) error {
	start := time.Now()
	edges, err := bipartite.ReadEdgesMax(bytes.NewReader(tsv), bipartite.MaxNodeID)
	if err != nil {
		return err
	}
	m["bipartite.read_edgelist_ms"] = ms(time.Since(start))
	nu, nm := sideSizes(edges)
	start = time.Now()
	if _, err := bipartite.FromEdges(nu, nm, edges); err != nil {
		return err
	}
	m["bipartite.build_ms"] = ms(time.Since(start))
	return nil
}

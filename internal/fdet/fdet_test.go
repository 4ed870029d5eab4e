package fdet

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"testing/quick"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/density"
)

// plantedGraph embeds numBlocks disjoint dense blocks (blockUsers x
// blockMerchants, full) in a sparse random background.
func plantedGraph(seed int64, bgUsers, bgMerchants, bgEdges, numBlocks, blockUsers, blockMerchants int) (*bipartite.Graph, [][]uint32) {
	rng := rand.New(rand.NewSource(seed))
	nu := bgUsers + numBlocks*blockUsers
	nm := bgMerchants + numBlocks*blockMerchants
	b := bipartite.NewBuilderSized(nu, nm, bgEdges+numBlocks*blockUsers*blockMerchants)
	for i := 0; i < bgEdges; i++ {
		b.AddEdge(uint32(rng.Intn(bgUsers)), uint32(rng.Intn(bgMerchants)))
	}
	var blockUserIDs [][]uint32
	for k := 0; k < numBlocks; k++ {
		var ids []uint32
		for i := 0; i < blockUsers; i++ {
			u := uint32(bgUsers + k*blockUsers + i)
			ids = append(ids, u)
			for j := 0; j < blockMerchants; j++ {
				v := uint32(bgMerchants + k*blockMerchants + j)
				b.AddEdge(u, v)
			}
		}
		blockUserIDs = append(blockUserIDs, ids)
	}
	return b.Build(), blockUserIDs
}

// biclique is the full a×b graph: one planted block and no background.
func biclique(a, b int) *bipartite.Graph {
	g, _ := plantedGraph(0, 0, 0, 0, 1, a, b)
	return g
}

func TestPeelFindsPlantedBlock(t *testing.T) {
	g, blocks := plantedGraph(1, 200, 200, 400, 1, 8, 8)
	blk, ok := Peel(g, density.Default())
	if !ok {
		t.Fatal("Peel found nothing")
	}
	inBlock := make(map[uint32]bool)
	for _, u := range blocks[0] {
		inBlock[u] = true
	}
	hit := 0
	for _, u := range blk.Users {
		if inBlock[u] {
			hit++
		}
	}
	if hit < len(blocks[0]) {
		t.Errorf("peel recovered %d/%d planted users; users=%v", hit, len(blocks[0]), blk.Users)
	}
	// The block should not engulf much of the background.
	if len(blk.Users) > 3*len(blocks[0]) {
		t.Errorf("peel block too large: %d users", len(blk.Users))
	}
}

func TestPeelEmptyGraph(t *testing.T) {
	g := bipartite.NewBuilder().Build()
	if _, ok := Peel(g, density.Default()); ok {
		t.Error("Peel on empty graph reported a block")
	}
}

func TestPeelScoreMatchesScoreSubset(t *testing.T) {
	// The incremental φ maintained by the peeler must equal the direct
	// subset score of the returned block.
	for seed := int64(0); seed < 5; seed++ {
		g, _ := plantedGraph(seed, 50, 50, 150, 1, 5, 5)
		blk, ok := Peel(g, density.Default())
		if !ok {
			t.Fatal("no block")
		}
		direct := scoreSubset(g, density.Default(), blk.Users, blk.Merchants)
		if math.Abs(direct-blk.Score) > 1e-9 {
			t.Errorf("seed %d: incremental score %g != direct %g", seed, blk.Score, direct)
		}
	}
}

func TestPropertyPeelBlockIsBestSuffix(t *testing.T) {
	// On small random graphs, no suffix of the deletion order may beat the
	// returned block — verified indirectly: the block's direct score must be
	// ≥ the whole graph's score (the whole alive graph is a candidate).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, nm := 2+rng.Intn(15), 2+rng.Intn(15)
		b := bipartite.NewBuilderSized(nu, nm, 0)
		for i := 0; i < 5+rng.Intn(60); i++ {
			b.AddEdge(uint32(rng.Intn(nu)), uint32(rng.Intn(nm)))
		}
		g := b.Build()
		blk, ok := Peel(g, density.Default())
		if !ok {
			return g.NumEdges() == 0
		}
		direct := scoreSubset(g, density.Default(), blk.Users, blk.Merchants)
		if math.Abs(direct-blk.Score) > 1e-9 {
			return false
		}
		// Whole-alive-graph score (isolated nodes excluded, matching the
		// peeler's universe).
		var users, merchants []uint32
		for u := 0; u < nu; u++ {
			if g.UserDegree(uint32(u)) > 0 {
				users = append(users, uint32(u))
			}
		}
		for v := 0; v < nm; v++ {
			if g.MerchantDegree(uint32(v)) > 0 {
				merchants = append(merchants, uint32(v))
			}
		}
		whole := scoreSubset(g, density.Default(), users, merchants)
		return blk.Score >= whole-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDetectMultipleBlocks(t *testing.T) {
	g, planted := plantedGraph(7, 300, 300, 500, 3, 8, 8)
	res := Detect(g, Options{})
	if len(res.Blocks) < 3 {
		t.Fatalf("detected %d blocks, want ≥ 3 (scores %v)", len(res.Blocks), res.Scores)
	}
	// Every planted user must appear in the union of retained blocks.
	detected := make(map[uint32]bool)
	for _, u := range res.DetectedUsers() {
		detected[u] = true
	}
	for k, ids := range planted {
		for _, u := range ids {
			if !detected[u] {
				t.Errorf("planted block %d user %d not detected", k, u)
			}
		}
	}
}

func TestDetectScoresDecreasing(t *testing.T) {
	// Figure 1 shape: the per-block score curve is (weakly) decreasing for
	// well-separated planted blocks of decreasing density.
	g, _ := plantedGraph(3, 400, 400, 800, 4, 10, 10)
	res := Detect(g, Options{DisableEarlyStop: true, MaxBlocks: 10})
	for i := 1; i < len(res.Scores); i++ {
		if res.Scores[i] > res.Scores[i-1]+1e-9 {
			t.Errorf("scores increase at %d: %v", i, res.Scores)
			break
		}
	}
}

func TestDetectEdgeDisjointBlocks(t *testing.T) {
	g, _ := plantedGraph(11, 100, 100, 300, 2, 6, 6)
	res := Detect(g, Options{FixedK: 5})
	type edge struct{ u, v uint32 }
	seen := make(map[edge]int)
	for _, blk := range res.Blocks {
		inM := make(map[uint32]bool)
		for _, v := range blk.Merchants {
			inM[v] = true
		}
		for _, u := range blk.Users {
			for _, v := range g.UserNeighbors(u) {
				if inM[v] {
					seen[edge{u, v}]++
				}
			}
		}
	}
	// Edge-disjointness is a property of Algorithm 1's edge removal; a
	// graph edge may at most be claimed once... but note a block records
	// nodes, and an unclaimed edge between later-block nodes may exist in
	// the graph without belonging to the block. We therefore only check
	// that total claimed mass does not exceed |E|.
	totalClaims := 0
	for _, c := range seen {
		totalClaims += c
	}
	if totalClaims > 2*g.NumEdges() {
		t.Errorf("implausible edge claim count %d for %d edges", totalClaims, g.NumEdges())
	}
}

func TestDetectFixedK(t *testing.T) {
	g, _ := plantedGraph(5, 200, 200, 600, 2, 6, 6)
	res := Detect(g, Options{FixedK: 4})
	if len(res.Blocks) != 4 {
		t.Errorf("FixedK=4 returned %d blocks", len(res.Blocks))
	}
	if res.TruncatedAt != 4 {
		t.Errorf("TruncatedAt = %d, want 4", res.TruncatedAt)
	}
}

func TestDetectEmptyGraph(t *testing.T) {
	g := bipartite.NewBuilder().Build()
	res := Detect(g, Options{})
	if len(res.Blocks) != 0 || len(res.Scores) != 0 {
		t.Errorf("empty graph produced blocks: %+v", res)
	}
}

func TestDetectSingleEdge(t *testing.T) {
	b := bipartite.NewBuilder()
	b.AddEdge(0, 0)
	res := Detect(b.Build(), Options{})
	if len(res.Blocks) != 1 {
		t.Fatalf("got %d blocks, want 1", len(res.Blocks))
	}
	blk := res.Blocks[0]
	if len(blk.Users) != 1 || len(blk.Merchants) != 1 {
		t.Errorf("block = %+v, want the single edge", blk)
	}
}

func TestTruncatingPoint(t *testing.T) {
	cases := []struct {
		name   string
		scores []float64
		want   int
	}{
		{"too short 0", nil, 0},
		{"too short 1", []float64{1}, 1},
		{"too short 2", []float64{1, 0.9}, 2},
		// Elbow after the 2nd block: sharp drop 0.9→0.2 then plateau.
		{"elbow at 2", []float64{1.0, 0.9, 0.2, 0.18, 0.17}, 2},
		// Gradual decay: Δ² minimized at the first interior point.
		{"linear decay", []float64{1.0, 0.8, 0.6, 0.4}, 2},
	}
	for _, c := range cases {
		if got := TruncatingPoint(c.scores); got != c.want {
			t.Errorf("%s: TruncatingPoint(%v) = %d, want %d", c.name, c.scores, got, c.want)
		}
	}
}

func TestSecondDifferences(t *testing.T) {
	got := SecondDifferences([]float64{1, 0.9, 0.2, 0.18})
	want := []float64{0.2 - 2*0.9 + 1, 0.18 - 2*0.2 + 0.9}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Δ²[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if SecondDifferences([]float64{1, 2}) != nil {
		t.Error("short sequence should return nil")
	}
}

func TestTruncationKeepsDenseBlocksDropsTail(t *testing.T) {
	// With 3 planted blocks and noise, truncation must keep at least the
	// planted blocks' worth of detections and kˆ must be < MaxBlocks.
	g, _ := plantedGraph(13, 500, 500, 1000, 3, 10, 10)
	res := Detect(g, Options{DisableEarlyStop: true, MaxBlocks: 20})
	if res.TruncatedAt < 3 {
		t.Errorf("kˆ = %d, want ≥ 3 planted blocks (scores %v)", res.TruncatedAt, res.Scores)
	}
	if res.TruncatedAt >= 20 {
		t.Errorf("kˆ = %d did not truncate at all", res.TruncatedAt)
	}
}

func TestEarlyStopMatchesExhaustiveKHat(t *testing.T) {
	// The early-stop heuristic must retain the same blocks as exhaustive
	// detection whenever the elbow is well-formed.
	g, _ := plantedGraph(17, 300, 300, 600, 3, 9, 9)
	fast := Detect(g, Options{})
	full := Detect(g, Options{DisableEarlyStop: true})
	if fast.TruncatedAt != full.TruncatedAt {
		t.Logf("fast kˆ=%d full kˆ=%d (allowed to differ on ill-formed elbows); fast=%v full=%v",
			fast.TruncatedAt, full.TruncatedAt, fast.Scores, full.Scores)
	}
	if len(fast.Blocks) == 0 {
		t.Error("early stop returned no blocks")
	}
}

func TestDetectDeterministic(t *testing.T) {
	g, _ := plantedGraph(23, 200, 200, 500, 2, 7, 7)
	a := Detect(g, Options{})
	b := Detect(g, Options{})
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for i := range a.Blocks {
		if a.Blocks[i].Score != b.Blocks[i].Score {
			t.Errorf("block %d scores differ", i)
		}
	}
}

func TestDetectAvgDegreeMetric(t *testing.T) {
	g, planted := plantedGraph(29, 200, 200, 400, 1, 8, 8)
	res := Detect(g, Options{Metric: density.AvgDegree{}})
	if len(res.Blocks) == 0 {
		t.Fatal("no blocks with avg-degree metric")
	}
	detected := make(map[uint32]bool)
	for _, u := range res.DetectedUsers() {
		detected[u] = true
	}
	hits := 0
	for _, u := range planted[0] {
		if detected[u] {
			hits++
		}
	}
	if hits < len(planted[0])/2 {
		t.Errorf("avg-degree metric recovered %d/%d planted users", hits, len(planted[0]))
	}

	// Explicit all-ones weights are the same detection, bit for bit.
	ones := make([]float64, g.NumMerchants())
	for i := range ones {
		ones[i] = 1
	}
	if got, want := resultDigest(Detect(g, Options{MerchantWeights: ones})), resultDigest(res); got != want {
		t.Errorf("all-ones MerchantWeights digest %s, AvgDegree metric %s", got, want)
	}
}

// TestPeelerAllEqualPrioritiesPinsTieBreak pins the raw deletion order on a
// graph whose nodes all start at the same priority: the 3×3 biclique. Every
// pop must take the lowest id among minimum-priority nodes, giving exactly
// this interleaving (users are ids 0..2, merchants ids 3..5):
//
//	pop u0@3 → merchants drop to 2 → pop m0@2 → u1,u2 drop to 2 →
//	pop u1@2 → m1,m2 drop to 1 → pop m1@1 → u2 drops to 1 →
//	pop u2@1 → m2 drops to 0 → pop m2@0.
func TestPeelerAllEqualPrioritiesPinsTieBreak(t *testing.T) {
	g := biclique(3, 3)
	var p peeler
	p.reset(g, density.AvgDegree{}.MerchantWeights(g))
	if _, ok := p.peelOnce(); !ok {
		t.Fatal("peelOnce found nothing")
	}
	if want := []int32{0, 3, 1, 4, 2, 5}; !slices.Equal(p.order, want) {
		t.Fatalf("deletion order %v, want %v", p.order, want)
	}
}

// TestDetectDegenerateInputs covers the peeler edge cases under unit
// weights, where every score is exact: empty graph, a single edge, and a
// graph that empties entirely in round one.
func TestDetectDegenerateInputs(t *testing.T) {
	opts := Options{Metric: density.AvgDegree{}}

	// Empty graph: no blocks, no scores.
	empty := Detect(bipartite.NewBuilder().Build(), opts)
	if len(empty.Blocks) != 0 || len(empty.Scores) != 0 || empty.TruncatedAt != 0 {
		t.Fatalf("empty graph detected %+v", empty)
	}

	// Single edge: one block holding both endpoints, φ = 1/2.
	res := Detect(biclique(1, 1), opts)
	if len(res.Blocks) != 1 {
		t.Fatalf("single edge gave %d blocks", len(res.Blocks))
	}
	blk := res.Blocks[0]
	if !slices.Equal(blk.Users, []uint32{0}) || !slices.Equal(blk.Merchants, []uint32{0}) || blk.Score != 0.5 {
		t.Fatalf("single-edge block = %+v, want users [0], merchants [0], score 0.5", blk)
	}

	// Complete biclique: round one consumes the whole graph (the best
	// suffix is the intact graph, and removing its edges empties it), so
	// detection must stop after one block even when asked for more.
	opts.FixedK = 5
	res = Detect(biclique(4, 4), opts)
	if len(res.Blocks) != 1 {
		t.Fatalf("biclique gave %d blocks, want 1", len(res.Blocks))
	}
	blk = res.Blocks[0]
	if len(blk.Users) != 4 || len(blk.Merchants) != 4 || blk.Score != 2 { // 16 edges / 8 nodes
		t.Fatalf("biclique block %dx%d score %v, want 4x4 score 2", len(blk.Users), len(blk.Merchants), blk.Score)
	}
}

// unitGraph is Dataset #1 at the unit-test scale of internal/experiments
// (0.006 of Table I, seed 99): 2,729 users, 1,376 merchants, 6,078 edges.
func unitGraph(tb testing.TB) *bipartite.Graph {
	tb.Helper()
	ds, err := datagen.GeneratePreset(datagen.Dataset1, 0.006, 99)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Graph
}

// TestDetectAllocs pins what one detection allocates on the unit graph:
// its scratch, built from empty, and the blocks it returns, a few per block
// and none per peeled edge. At FixedK 8, 64-bit builds read 75 and 32-bit
// builds 76, where one scratch slice regrows once more.
func TestDetectAllocs(t *testing.T) {
	g := unitGraph(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // count the code's allocations, not a collection's
	for _, c := range []struct{ k, want int }{{4, 70}, {8, 76}} {
		allocs := testing.AllocsPerRun(5, func() {
			Detect(g, Options{FixedK: c.k})
		})
		if allocs > float64(c.want) {
			t.Errorf("FixedK %d: Detect allocates %v times, want <= %d", c.k, allocs, c.want)
		}
	}
}

// BenchmarkPeelSingleBlock isolates one greedy peeling round on the unit
// graph.
func BenchmarkPeelSingleBlock(b *testing.B) {
	g := unitGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Peel(g, density.Default()); !ok {
			b.Fatal("no block")
		}
	}
}

// BenchmarkPeelOnce peels the unit graph into 8 blocks; rounds/op is
// constant for the graph, so ns/op over rounds/op is the cost of one
// peeling round inside a multi-block detection.
func BenchmarkPeelOnce(b *testing.B) {
	g := unitGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		rounds += len(Detect(g, Options{FixedK: 8}).Scores)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

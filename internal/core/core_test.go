package core

import (
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/sampling"
)

// plantedGraph embeds dense fraud blocks in a sparse background; returns the
// graph and the planted fraud user set.
func plantedGraph(seed int64, bgUsers, bgMerchants, bgEdges, numBlocks, blockUsers, blockMerchants int) (*bipartite.Graph, map[uint32]bool) {
	rng := rand.New(rand.NewSource(seed))
	nu := bgUsers + numBlocks*blockUsers
	nm := bgMerchants + numBlocks*blockMerchants
	b := bipartite.NewBuilderSized(nu, nm, 0)
	for i := 0; i < bgEdges; i++ {
		b.AddEdge(uint32(rng.Intn(bgUsers)), uint32(rng.Intn(bgMerchants)))
	}
	fraud := make(map[uint32]bool)
	for k := 0; k < numBlocks; k++ {
		for i := 0; i < blockUsers; i++ {
			u := uint32(bgUsers + k*blockUsers + i)
			fraud[u] = true
			for j := 0; j < blockMerchants; j++ {
				b.AddEdge(u, uint32(bgMerchants+k*blockMerchants+j))
			}
		}
	}
	return b.Build(), fraud
}

func testConfig() Config {
	return Config{NumSamples: 12, SampleRatio: 0.3, Seed: 1}
}

// panicSampler simulates a bug deep in the parallel phase.
type panicSampler struct{}

func (panicSampler) Name() string { return "panic" }
func (panicSampler) Sample(*bipartite.Graph, float64, *rand.Rand) *bipartite.Subgraph {
	panic("boom")
}

func TestRunSurvivesWorkerPanic(t *testing.T) {
	// A panic inside a worker goroutine must come back as Run's error, not
	// kill the process: long-running daemons recover around Run, but that
	// cannot reach goroutines Run spawns itself.
	g, _ := plantedGraph(1, 50, 50, 100, 1, 5, 5)
	_, err := Run(g, Config{Method: panicSampler{}, NumSamples: 4, SampleRatio: 0.5})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a recovered panic error", err)
	}
}

func TestRunRecoversPlantedFraud(t *testing.T) {
	g, fraud := plantedGraph(1, 400, 400, 800, 2, 10, 10)
	out, err := Run(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Fraud users must out-vote typical background users: at a majority
	// threshold, most accepted users are fraud.
	accepted := out.Votes.AcceptUsers(out.Votes.NumSamples / 2)
	if len(accepted) == 0 {
		t.Fatal("no users accepted at N/2 votes")
	}
	hits := 0
	for _, u := range accepted {
		if fraud[u] {
			hits++
		}
	}
	if hits < len(fraud)/2 {
		t.Errorf("only %d/%d planted fraud users accepted (|accepted|=%d)", hits, len(fraud), len(accepted))
	}
	if prec := float64(hits) / float64(len(accepted)); prec < 0.5 {
		t.Errorf("precision at N/2 = %.2f, want ≥ 0.5", prec)
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	g, _ := plantedGraph(3, 200, 200, 400, 1, 8, 8)
	cfg := testConfig()
	cfg.Parallelism = 1
	a, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 8
	b, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Votes, b.Votes) {
		t.Error("votes differ across parallelism levels")
	}
	if !reflect.DeepEqual(a.KHats, b.KHats) {
		t.Error("kˆ values differ across parallelism levels")
	}
}

func TestRunSeedChangesVotes(t *testing.T) {
	g, _ := plantedGraph(5, 300, 300, 900, 1, 8, 8)
	cfg := testConfig()
	a, _ := Run(g, cfg)
	cfg.Seed = 999
	b, _ := Run(g, cfg)
	if reflect.DeepEqual(a.Votes.User, b.Votes.User) {
		t.Error("different seeds produced identical votes (suspicious)")
	}
}

func TestVoteMonotonicityInT(t *testing.T) {
	g, _ := plantedGraph(7, 300, 300, 600, 2, 8, 8)
	out, err := Run(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := out.Votes.CountUsersAt(1)
	for T := 2; T <= out.Votes.NumSamples; T++ {
		cur := out.Votes.CountUsersAt(T)
		if cur > prev {
			t.Fatalf("detected count increased with T: %d→%d at T=%d", prev, cur, T)
		}
		prev = cur
	}
}

func TestPropertyAcceptSetsNested(t *testing.T) {
	// Accept(T+1) ⊆ Accept(T) for arbitrary vote vectors.
	f := func(raw []uint8) bool {
		v := Votes{User: make([]int, len(raw)), NumSamples: 16}
		for i, r := range raw {
			v.User[i] = int(r % 17)
		}
		for T := 1; T < 16; T++ {
			hi := v.AcceptUsers(T + 1)
			inLo := make(map[uint32]bool)
			for _, u := range v.AcceptUsers(T) {
				inLo[u] = true
			}
			for _, u := range hi {
				if !inLo[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUserThresholds(t *testing.T) {
	v := Votes{User: []int{0, 3, 1, 3, 7}, NumSamples: 8}
	got := v.UserThresholds()
	want := []int{1, 3, 7}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("UserThresholds = %v, want %v", got, want)
	}
	if v.MaxUserVotes() != 7 {
		t.Errorf("MaxUserVotes = %d, want 7", v.MaxUserVotes())
	}
}

func TestAcceptThresholdFloor(t *testing.T) {
	v := Votes{User: []int{0, 2}, NumSamples: 4}
	// T below 1 behaves as 1: nodes with zero votes are never accepted.
	if got := v.AcceptUsers(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("AcceptUsers(0) = %v, want [1]", got)
	}
	if v.CountUsersAt(-5) != 1 {
		t.Errorf("CountUsersAt(-5) = %d, want 1", v.CountUsersAt(-5))
	}
}

func TestConfigValidation(t *testing.T) {
	g, _ := plantedGraph(9, 50, 50, 100, 1, 4, 4)
	if _, err := Run(g, Config{SampleRatio: 1.5}); err == nil {
		t.Error("S > 1 accepted")
	}
	if _, err := Run(g, Config{SampleRatio: -0.1}); err == nil {
		t.Error("S < 0 accepted")
	}
}

func TestConfigValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty means valid
	}{
		{"zero value uses defaults", Config{}, ""},
		{"explicit valid", Config{NumSamples: 80, SampleRatio: 0.1}, ""},
		{"N zero selects default", Config{NumSamples: 0}, ""},
		// Negative N is rejected, and the message must say "non-negative" —
		// the old text claimed N "must be positive" while the check only
		// rejected negatives, misleading callers about N = 0.
		{"N negative", Config{NumSamples: -1}, "non-negative"},
		{"N very negative", Config{NumSamples: -80}, "non-negative"},
		{"S above one", Config{SampleRatio: 1.01}, "sample ratio"},
		{"S negative", Config{SampleRatio: -0.5}, "sample ratio"},
		{"S boundary one", Config{SampleRatio: 1}, ""},
	}
	for _, c := range cases {
		err := c.cfg.validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", c.name, c.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
		if strings.Contains(err.Error(), "must be positive") {
			t.Errorf("%s: error %q still uses the misleading 'must be positive' wording", c.name, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.method().Name() != "RES" {
		t.Errorf("default method = %q, want RES", c.method().Name())
	}
	if c.numSamples() != DefaultN || c.sampleRatio() != DefaultS {
		t.Errorf("defaults = (%d,%g), want (%d,%g)", c.numSamples(), c.sampleRatio(), DefaultN, DefaultS)
	}
	if got := (Config{NumSamples: 10, SampleRatio: 0.1}).RepetitionRate(); got != 1.0 {
		t.Errorf("R = %g, want 1", got)
	}
	// The zero value inherits both defaults: R = 0.1 × 80 = 8 (Table II).
	if got := c.RepetitionRate(); got != 8.0 {
		t.Errorf("zero-value R = %g, want 8", got)
	}
}

func TestRunCollectScores(t *testing.T) {
	g, _ := plantedGraph(11, 200, 200, 400, 2, 6, 6)
	cfg := testConfig()
	cfg.CollectScores = true
	out, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.BlockScores) != cfg.NumSamples {
		t.Fatalf("BlockScores len = %d, want %d", len(out.BlockScores), cfg.NumSamples)
	}
	nonEmpty := 0
	for i, scores := range out.BlockScores {
		if len(scores) > 0 {
			nonEmpty++
		}
		if out.KHats[i] > len(scores) {
			t.Errorf("sample %d: kˆ=%d > detected %d", i, out.KHats[i], len(scores))
		}
	}
	if nonEmpty == 0 {
		t.Error("no sample produced any block")
	}
}

func TestRunEmptyGraph(t *testing.T) {
	g := bipartite.NewBuilder().Build()
	out, err := Run(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if out.Votes.MaxUserVotes() != 0 {
		t.Error("votes on empty graph")
	}
}

// TestDetectConvenience applies MVA at T = 6 to one run's votes, giving the
// final fraud sets (U_final, V_final) of Algorithm 2, and finds planted
// fraud users among them.
func TestDetectConvenience(t *testing.T) {
	g, fraud := plantedGraph(13, 300, 300, 600, 1, 10, 10)
	out, err := Run(g, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	users, merchants := out.Votes.AcceptUsers(6), out.Votes.AcceptMerchants(6)
	if len(users) == 0 || len(merchants) == 0 {
		t.Fatalf("empty fraud sets at T=6 (%d users, %d merchants)", len(users), len(merchants))
	}
	hits := 0
	for _, u := range users {
		if fraud[u] {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no planted fraud users at T=6")
	}
}

func TestRunWithEachSampler(t *testing.T) {
	g, _ := plantedGraph(15, 200, 100, 500, 1, 8, 6)
	for _, m := range sampling.All() {
		cfg := testConfig()
		cfg.Method = m
		cfg.SampleRatio = 0.4
		out, err := Run(g, cfg)
		if err != nil {
			t.Errorf("%s: %v", m.Name(), err)
			continue
		}
		if out.Votes.NumSamples != cfg.NumSamples {
			t.Errorf("%s: NumSamples = %d", m.Name(), out.Votes.NumSamples)
		}
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

// TestRunAllocs pins Algorithm 2's allocations at the paper's S = 0.1 under
// RES: a run allocates its worker's arena and its outputs once, and then 2
// times per sample (the sample's rand.Rand and its source), plus the rare
// regrowth of the worker's scratch, whatever the sample's size.
// AllocsPerRun runs at GOMAXPROCS 1, so one worker takes every sample.
// 64-bit builds read 296 and 376, 32-bit builds 295 and 377: the scratch
// regrows at other sample sizes there.
func TestRunAllocs(t *testing.T) {
	g := unitGraph(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // count the code's allocations, not a collection's
	counts := make(map[int]float64)
	for _, c := range []struct{ n, want int }{{40, 296}, {80, 377}} {
		cfg := Config{NumSamples: c.n, SampleRatio: 0.1, Seed: 1}
		counts[c.n] = testing.AllocsPerRun(2, func() {
			if _, err := Run(g, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if counts[c.n] > float64(c.want) {
			t.Errorf("N=%d: Run allocates %v times, want <= %d", c.n, counts[c.n], c.want)
		}
	}
	if extra := counts[80] - counts[40]; extra > 2*40+2 {
		t.Errorf("40 more samples allocate %v more times, want <= 82: %v", extra, counts)
	}
}

// BenchmarkEnsembleN80 is the paper's main setting on the unit graph: RES,
// N = 80, S = 0.1, with the workers GOMAXPROCS sets.
func BenchmarkEnsembleN80(b *testing.B) {
	g := unitGraph(b)
	cfg := Config{NumSamples: 80, SampleRatio: 0.1, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

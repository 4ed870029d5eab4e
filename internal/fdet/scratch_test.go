package fdet

import (
	"reflect"
	"sort"
	"testing"

	"ensemfdet/internal/density"
)

// TestUnionIDsSortedOrder pins the satellite contract: DetectedUsers and
// DetectedMerchants return sorted ascending ids, with duplicates across
// blocks merged.
func TestUnionIDsSortedOrder(t *testing.T) {
	blocks := []Block{
		{Users: []uint32{9, 2, 5}, Merchants: []uint32{4}},
		{Users: []uint32{2, 7, 0}, Merchants: []uint32{1, 4, 3}},
		{Users: []uint32{5}, Merchants: nil},
	}
	r := Result{Blocks: blocks}
	wantU := []uint32{0, 2, 5, 7, 9}
	if got := r.DetectedUsers(); !reflect.DeepEqual(got, wantU) {
		t.Errorf("DetectedUsers = %v, want %v (sorted, deduped)", got, wantU)
	}
	wantM := []uint32{1, 3, 4}
	if got := r.DetectedMerchants(); !reflect.DeepEqual(got, wantM) {
		t.Errorf("DetectedMerchants = %v, want %v (sorted, deduped)", got, wantM)
	}
	if got := (Result{}).DetectedUsers(); got != nil {
		t.Errorf("empty result DetectedUsers = %v, want nil", got)
	}
}

func TestUnionIDsSortedProperty(t *testing.T) {
	g, _ := plantedGraph(37, 150, 150, 400, 2, 6, 6)
	res := Detect(g, Options{FixedK: 4})
	for _, ids := range [][]uint32{res.DetectedUsers(), res.DetectedMerchants()} {
		if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
			t.Errorf("union not sorted: %v", ids)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				t.Errorf("duplicate id %d in union", ids[i])
			}
		}
	}
}

// detectShapes are the plantedGraph arguments, and detectVariants the option
// sets, that the scratch-reuse test and the golden table both run.
var detectShapes = []struct {
	seed                              int64
	bgU, bgM, bgE, blocks, blkU, blkM int
}{
	{1, 300, 300, 700, 3, 8, 8},
	{2, 40, 40, 90, 1, 4, 4}, // shrink
	{3, 500, 450, 1200, 2, 10, 10},
	{4, 10, 10, 15, 1, 3, 3}, // shrink hard
	{5, 200, 260, 500, 2, 6, 6},
}

var detectVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"fixedk", Options{FixedK: 5}},
	{"exhaustive", Options{DisableEarlyStop: true, MaxBlocks: 12}},
	{"avgdeg", Options{Metric: density.AvgDegree{}}},
	{"avgdeg-fixedk", Options{Metric: density.AvgDegree{}, FixedK: 5}},
	{"avgdeg-exhaustive", Options{Metric: density.AvgDegree{}, DisableEarlyStop: true, MaxBlocks: 12}},
}

// TestScratchDetectMatchesDetect reuses one Scratch across many graphs of
// varying shapes and sizes and checks every Result against a fresh Detect.
// Shrinking then growing the graph between runs is the interesting case:
// stale buffer tails must never leak into a later detection.
func TestScratchDetectMatchesDetect(t *testing.T) {
	s := &Scratch{}
	for _, sh := range detectShapes {
		g, _ := plantedGraph(sh.seed, sh.bgU, sh.bgM, sh.bgE, sh.blocks, sh.blkU, sh.blkM)
		for _, v := range detectVariants {
			got, want := s.Detect(g, v.opts), Detect(g, v.opts)
			if resultDigest(got) != resultDigest(want) {
				t.Errorf("%s %s: scratch result\n%+v\nfresh result\n%+v", g, v.name, got, want)
			}
		}
	}
}

// TestScratchDetectEmptyGraph covers the degenerate reuse case: a warmed
// scratch handed an empty graph must return an empty result, not stale
// blocks from the previous run.
func TestScratchDetectEmptyGraph(t *testing.T) {
	s := &Scratch{}
	g, _ := plantedGraph(11, 100, 100, 300, 1, 5, 5)
	if res := s.Detect(g, Options{}); len(res.Blocks) == 0 {
		t.Fatal("warm-up detection found nothing")
	}
	empty, _ := plantedGraph(12, 5, 5, 0, 0, 0, 0)
	res := s.Detect(empty, Options{})
	if len(res.Blocks) != 0 || len(res.Scores) != 0 || res.TruncatedAt != 0 {
		t.Errorf("empty graph on warm scratch produced %+v", res)
	}
}

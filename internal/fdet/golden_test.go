package fdet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// resultDigest hashes everything a Result carries: kˆ, every detected
// score, and every retained block's ids and score. %x renders floats bit for
// bit (and tells -0 from 0), so equal digests mean bitwise-equal results.
func resultDigest(r Result) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%d %x %x", r.TruncatedAt, r.Scores, r.Blocks))
	return hex.EncodeToString(sum[:12])
}

// goldenDetect holds kˆ and resultDigest for the first three detectShapes
// under every detectVariant, keyed "seed/variant". It was recorded on parent
// commit a498f1f, which still had the unit-weight bucket-queue engine: this
// file and scratch_test.go's tables were copied into a `git archive a498f1f`
// tree with the table empty, `go test -run TestDetectGolden ./internal/fdet`
// printed one "got" line per row, and those lines were pasted here. At that
// commit the avgdeg rows ran the bucket queue and the others the index heap,
// so the table pins the one remaining engine to what both produced. There is
// no update flag: a row changes only by an edit a reviewer can see.
var goldenDetect = map[string]string{
	"1/default":           "k=3 dda6f283aa2f8e1975ddaa13",
	"1/fixedk":            "k=5 7190418d89674db8b83f1551",
	"1/exhaustive":        "k=3 b185240fc2dd4cbad6129cf2",
	"1/avgdeg":            "k=5 f1c7537c3e8fd877909efe0b",
	"1/avgdeg-fixedk":     "k=5 a16cfd662f05ec795ad00ce6",
	"1/avgdeg-exhaustive": "k=5 f1c7537c3e8fd877909efe0b",
	"2/default":           "k=4 961113224241c11d4dcab3a0",
	"2/fixedk":            "k=5 106fbcd9834d6982761aba97",
	"2/exhaustive":        "k=4 961113224241c11d4dcab3a0",
	"2/avgdeg":            "k=5 ce7640832bfc78159f1eff51",
	"2/avgdeg-fixedk":     "k=5 bdc5d63c205d3097aa4d7be1",
	"2/avgdeg-exhaustive": "k=5 ce7640832bfc78159f1eff51",
	"3/default":           "k=4 fa4b066a3e79f439f4e1c314",
	"3/fixedk":            "k=5 39242daaa67b46d11494f860",
	"3/exhaustive":        "k=4 ef17c2984bcd7beaebdbde10",
	"3/avgdeg":            "k=5 a4d641de41642c2b10f5330f",
	"3/avgdeg-fixedk":     "k=5 bedaba8af389564b00a8d29f",
	"3/avgdeg-exhaustive": "k=5 a4d641de41642c2b10f5330f",
}

func TestDetectGolden(t *testing.T) {
	for _, sh := range detectShapes[:3] {
		g, _ := plantedGraph(sh.seed, sh.bgU, sh.bgM, sh.bgE, sh.blocks, sh.blkU, sh.blkM)
		for _, v := range detectVariants {
			res := Detect(g, v.opts)
			name := fmt.Sprintf("%d/%s", sh.seed, v.name)
			got := fmt.Sprintf("k=%d %s", res.TruncatedAt, resultDigest(res))
			if want := goldenDetect[name]; got != want {
				t.Errorf("got %q: %q, (want %q)", name, got, want)
			}
		}
	}
}

package core

import (
	"testing"

	"ensemfdet/internal/sampling"
)

// BenchmarkClassifyClean measures delta classification across the samplers —
// the fixed per-run cost an incremental detection pays up front, before any
// dirty sample re-executes. TestClassifyCleanDoesNotAllocate pins it at
// zero allocations: the clean-sample path is a bitset probe per sample.
func BenchmarkClassifyClean(b *testing.B) {
	gb, _ := plantedGraph(13, 300, 60, 1200, 2, 10, 4)
	delta := DeltaInfo{Users: []uint32{1, 2, 3}, Merchants: []uint32{1, 2}}
	for _, m := range sampling.All() {
		b.Run(m.Name(), func(b *testing.B) {
			cfg := Config{Method: m, NumSamples: 16, SampleRatio: 0.2, Seed: 3, Record: true}
			out, err := Run(gb, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if out.Rec == nil {
				b.Fatal("no record")
			}
			dst := make([]int, 0, out.Rec.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = classify(out.Rec, delta, 1, 3, dst[:0])
			}
		})
	}
}

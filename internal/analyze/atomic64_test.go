package analyze_test

import (
	"testing"

	"ensemfdet/internal/analyze"
	"ensemfdet/internal/analyze/analysistest"
)

func TestAtomic64(t *testing.T) {
	analysistest.Run(t, "testdata", "atomic64", analyze.Atomic64)
}

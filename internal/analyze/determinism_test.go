package analyze_test

import (
	"testing"

	"ensemfdet/internal/analyze"
	"ensemfdet/internal/analyze/analysistest"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", "internal/core", analyze.Determinism)
}

// TestDeterminismDensity pins internal/density on the vote path: the
// merchant weights it computes feed every vote.
func TestDeterminismDensity(t *testing.T) {
	analysistest.Run(t, "testdata", "internal/density", analyze.Determinism)
}

func TestDeterminismOffPath(t *testing.T) {
	analysistest.Run(t, "testdata", "offpath", analyze.Determinism)
}

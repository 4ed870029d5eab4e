package daemon

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ensemfdet"
)

func testEngine(maxNodeID uint32) *ensemfdet.DetectEngine {
	return ensemfdet.NewDetectEngine(ensemfdet.NewStreamGraph(), ensemfdet.EngineOptions{MaxNodeID: maxNodeID})
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "edges.tsv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadEdgesHintOnlyOnIDBoundErrors pins the -load fix: the
// "see -max-node-id" hint belongs on id-bound failures alone — pointing an
// operator with a typo'd path at an id flag is actively misleading.
func TestLoadEdgesHintOnlyOnIDBoundErrors(t *testing.T) {
	eng := testEngine(100)

	err := loadEdges(eng, filepath.Join(t.TempDir(), "does-not-exist.tsv"))
	if err == nil {
		t.Fatal("missing file must fail")
	}
	if strings.Contains(err.Error(), "max-node-id") {
		t.Fatalf("file-not-found error carries the id-bound hint: %v", err)
	}

	err = loadEdges(eng, writeTemp(t, "1\tnot-a-number\n"))
	if err == nil || strings.Contains(err.Error(), "max-node-id") {
		t.Fatalf("parse error must fail without the id-bound hint: %v", err)
	}

	err = loadEdges(eng, writeTemp(t, "1\t2\n500\t2\n"))
	if err == nil || !strings.Contains(err.Error(), "max-node-id") {
		t.Fatalf("id-bound error must carry the hint: %v", err)
	}
	if !errors.Is(err, ensemfdet.ErrNodeIDRange) {
		t.Fatalf("id-bound error not tagged: %v", err)
	}
}

func TestLoadEdgesReportsDuplicates(t *testing.T) {
	eng := testEngine(0)
	if err := loadEdges(eng, writeTemp(t, "1\t2\n1\t2\n3\t4\n")); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.IngestStats.Added != 2 || st.IngestStats.Duplicates != 1 {
		t.Fatalf("load counted added=%d dups=%d, want 2/1", st.IngestStats.Added, st.IngestStats.Duplicates)
	}
}

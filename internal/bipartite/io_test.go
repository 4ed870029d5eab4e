package bipartite

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadEdgeList(t *testing.T) {
	in := `# who buy-from where
0	0
0 1

1	1
# trailing comment
2 1
2	2
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	want := smallGraph(t)
	if !reflect.DeepEqual(g.EdgeList(), want.EdgeList()) {
		t.Errorf("edges = %v, want %v", g.EdgeList(), want.EdgeList())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",                       // one field
		"a\t1\n",                    // bad user
		"1\tb\n",                    // bad merchant
		"-1\t0\n",                   // negative
		"99999999999999999999\t0\n", // overflow
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

func TestReadEdgeListCRLF(t *testing.T) {
	// Windows-style line endings must parse identically to \n.
	in := "# crlf file\r\n0\t0\r\n\r\n0 1\r\n1\t1\r\n2 1\r\n2\t2\r\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadEdgeList(CRLF): %v", err)
	}
	want := smallGraph(t)
	if !reflect.DeepEqual(g.EdgeList(), want.EdgeList()) {
		t.Errorf("edges = %v, want %v", g.EdgeList(), want.EdgeList())
	}
}

func TestTextRoundTripThroughCommentsAndNoise(t *testing.T) {
	// A noisy input — comments, blank lines, CRLF, duplicate edges — must
	// survive read → write → read with a canonical, deduplicated edge set.
	in := "# header\r\n\r\n3\t1\n0 0\r\n# mid comment\n0\t0\n2 2\r\n\n"
	g1, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatalf("first read: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g1); err != nil {
		t.Fatalf("write: %v", err)
	}
	g2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("second read: %v", err)
	}
	wantEdges := []Edge{{U: 0, V: 0}, {U: 2, V: 2}, {U: 3, V: 1}}
	if !reflect.DeepEqual(g1.EdgeList(), wantEdges) {
		t.Errorf("first read edges = %v, want %v", g1.EdgeList(), wantEdges)
	}
	if !reflect.DeepEqual(g2.EdgeList(), g1.EdgeList()) {
		t.Errorf("round trip changed edges: %v vs %v", g2.EdgeList(), g1.EdgeList())
	}
}

func TestReadEdgeListMaxRejectsHugeIDs(t *testing.T) {
	// A 20-byte line naming a near-2^32 id must fail during parsing — the
	// builder would otherwise commit to O(max_id) offset arrays.
	if _, err := ReadEdgeListMax(strings.NewReader("4294967294\t0\n"), 1000); err == nil {
		t.Error("id above the bound accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("4294967295\t0\n")); err == nil {
		t.Error("id 2^32-1 accepted (CSR offsets index by id+1)")
	}
	g, err := ReadEdgeListMax(strings.NewReader("1000\t7\n"), 1000)
	if err != nil {
		t.Fatalf("id at the bound rejected: %v", err)
	}
	if g.NumUsers() != 1001 {
		t.Errorf("NumUsers = %d, want 1001", g.NumUsers())
	}
}

func TestReadEdgeListErrorReportsLineNumber(t *testing.T) {
	// Line numbering must count comments and blanks so the error points at
	// the real file position.
	in := "# comment\n0\t0\n\nnot numbers here\n"
	_, err := ReadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error %q does not name line 4", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	g := smallGraph(t)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if !reflect.DeepEqual(g.EdgeList(), g2.EdgeList()) {
		t.Errorf("round trip changed edges")
	}
}

package bipartite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

func randomCodecGraph(seed int64, users, merchants, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilderSized(users, merchants, n)
	for i := 0; i < n; i++ {
		b.AddEdge(uint32(rng.Intn(users)), uint32(rng.Intn(merchants)))
	}
	return b.Build()
}

func TestCSRCodecRoundTrip(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":    {},
		"one edge": mustFromEdges(t, 1, 1, []Edge{{U: 0, V: 0}}),
		// Trailing isolated nodes: declared sizes beyond the largest id must
		// survive the round trip (the edge-list text format cannot express
		// them; the CSR codec must).
		"isolated tail": mustFromEdges(t, 10, 7, []Edge{{U: 2, V: 3}}),
		"random":        randomCodecGraph(1, 300, 200, 5000),
	}
	for name, g := range graphs {
		var buf bytes.Buffer
		if err := WriteCSR(&buf, g); err != nil {
			t.Fatalf("%s: WriteCSR: %v", name, err)
		}
		got, err := ReadCSR(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadCSR: %v", name, err)
		}
		if got.NumUsers() != g.NumUsers() || got.NumMerchants() != g.NumMerchants() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: shape %v, want %v", name, got, g)
		}
		if !reflect.DeepEqual(got.EdgeList(), g.EdgeList()) {
			t.Fatalf("%s: edge lists differ after round trip", name)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: decoded graph invalid: %v", name, err)
		}
		// Canonical encoding: re-encoding the decoded graph is byte-identical.
		var buf2 bytes.Buffer
		if err := WriteCSR(&buf2, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: encoding is not canonical", name)
		}
	}
}

// TestCSRCodecDetectsCorruption flips every byte of a small encoding in turn;
// each mutation must be rejected (checksum, magic, format, size sanity, or
// CSR validation — never a silently wrong graph).
func TestCSRCodecDetectsCorruption(t *testing.T) {
	g := randomCodecGraph(2, 20, 15, 60)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	ref := g.EdgeList()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		got, err := ReadCSR(bytes.NewReader(mut))
		if err == nil && reflect.DeepEqual(got.EdgeList(), ref) &&
			got.NumUsers() == g.NumUsers() && got.NumMerchants() == g.NumMerchants() {
			// The mutation round-tripped to the same graph — impossible for a
			// single flipped byte under CRC32C unless the reader ignored it.
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestCSRCodecTruncation(t *testing.T) {
	g := randomCodecGraph(3, 30, 30, 100)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for _, cut := range []int{0, 1, 7, len(enc) / 2, len(enc) - 1} {
		if _, err := ReadCSR(bytes.NewReader(enc[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

func TestCSRCodecBadHeader(t *testing.T) {
	g := randomCodecGraph(4, 5, 5, 10)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()

	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff // magic
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[4] = 99 // format version
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("bad format: %v", err)
	}

	// An empty graph whose edge count is patched past MaxInt, checksum
	// recomputed: decoding it as an empty graph would not re-encode to the
	// same bytes.
	buf.Reset()
	if err := WriteCSR(&buf, &Graph{}); err != nil {
		t.Fatal(err)
	}
	bad = buf.Bytes()
	binary.LittleEndian.PutUint64(bad[24:], 1<<63)
	binary.LittleEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], castagnoli))
	if _, err := ReadCSR(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "edges") {
		t.Fatalf("edge count beyond an int: %v", err)
	}
}

// headerWithEdges returns the encoding of an empty graph whose header
// declares numEdges edges, checksum recomputed.
func headerWithEdges(t *testing.T, numEdges uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSR(&buf, &Graph{}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	binary.LittleEndian.PutUint64(enc[24:], numEdges)
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(enc[:len(enc)-4], castagnoli))
	return enc
}

// allocBytes returns the bytes f allocates per call, averaged over runs.
func allocBytes(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCSREdgeCeiling pins the 32-bit edge ceiling at the reader: a header
// declaring more than MaxEdges edges is refused with ErrTooManyEdges before
// anything sized by the header is allocated, while one at the ceiling passes
// the guard and fails only when the file runs out.
func TestCSREdgeCeiling(t *testing.T) {
	for _, tc := range []struct {
		edges   uint64
		tooMany bool
	}{
		{MaxEdges, false},
		{MaxEdges + 1, true},
		{1 << 63, true},
	} {
		enc := headerWithEdges(t, tc.edges)
		_, err := ReadCSR(bytes.NewReader(enc))
		if err == nil {
			t.Fatalf("%d edges: decoded a graph from an empty file", tc.edges)
		}
		if got := errors.Is(err, ErrTooManyEdges); got != tc.tooMany {
			t.Fatalf("%d edges: errors.Is(err, ErrTooManyEdges) = %v, want %v (%v)", tc.edges, got, tc.tooMany, err)
		}
		if tc.tooMany {
			if b := allocBytes(10, func() { _, _ = ReadCSR(bytes.NewReader(enc)) }); b > 1024 {
				t.Fatalf("%d edges: the refusal allocated %.0f bytes, want no header-sized allocation", tc.edges, b)
			}
		}
	}
}

// TestEdgeCeilingGuard tests the guard itself: MaxEdges fits, one more does
// not, and the builders without an error return panic naming the limit.
func TestEdgeCeilingGuard(t *testing.T) {
	if err := checkEdges(MaxEdges); err != nil {
		t.Fatalf("checkEdges(MaxEdges) = %v, want nil", err)
	}
	if err := checkEdges(MaxEdges + 1); !errors.Is(err, ErrTooManyEdges) {
		t.Fatalf("checkEdges(MaxEdges+1) = %v, want ErrTooManyEdges", err)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "2^32-1") {
			t.Fatalf("mustFitEdges(MaxEdges+1) panicked with %q, want the limit named", msg)
		}
	}()
	mustFitEdges(MaxEdges + 1)
}

// TestCSRWideOffsetRefused patches one user offset to 2^32 past its value,
// checksum recomputed: narrowed to 32 bits it would read as the original
// offset, so the reader must refuse it rather than narrow it.
func TestCSRWideOffsetRefused(t *testing.T) {
	g := randomCodecGraph(6, 5, 5, 10)
	var buf bytes.Buffer
	if err := WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	const userOff1 = 32 + 8 // header, then userOff[0]
	binary.LittleEndian.PutUint64(enc[userOff1:], binary.LittleEndian.Uint64(enc[userOff1:])+1<<32)
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.Checksum(enc[:len(enc)-4], castagnoli))
	if _, err := ReadCSR(bytes.NewReader(enc)); err == nil || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("an offset past 32 bits decoded: %v", err)
	}
}

// TestCSRCodecScratchFollowsGraph bounds what a round trip of a 10-edge
// graph allocates: the codec's scratch is sized to the graph, not to its
// 256 KB chunk.
func TestCSRCodecScratchFollowsGraph(t *testing.T) {
	g := randomCodecGraph(5, 5, 5, 10)
	var buf bytes.Buffer
	b := allocBytes(100, func() {
		buf.Reset()
		if err := WriteCSR(&buf, g); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCSR(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if b >= 16<<10 {
		t.Fatalf("WriteCSR plus ReadCSR of %d edges allocate %.0f bytes, want < 16 KB", g.NumEdges(), b)
	}
	t.Logf("%.0f bytes per round trip", b)
}

func TestReadEdgesMaxTagsIDRange(t *testing.T) {
	_, err := ReadEdgesMax(strings.NewReader("1\t999\n"), 10)
	if !errors.Is(err, ErrIDRange) {
		t.Fatalf("id-bound error = %v, want ErrIDRange", err)
	}
	_, err = ReadEdgesMax(strings.NewReader("1\tnope\n"), 10)
	if err == nil || errors.Is(err, ErrIDRange) {
		t.Fatalf("parse error must not be tagged ErrIDRange: %v", err)
	}
}

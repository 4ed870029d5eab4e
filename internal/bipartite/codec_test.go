package bipartite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
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

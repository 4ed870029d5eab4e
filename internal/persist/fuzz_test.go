package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"ensemfdet/internal/stream"
)

// The three decoders that read this package's files from disk — WAL record
// frames, snapshots and the fence — each have one fuzz target. Each is
// seeded with real bytes from the matching encoder plus torn, bit-flipped,
// padded and retired-format copies. Every target
// requires that the decoder never panics, and that whatever it accepts
// re-encodes byte-identically, so a decode/encode cycle can never silently
// rewrite a file. Plain `go test` runs the seeds only; the fuzzer proper is
//
//	go test -run '^$' -fuzz '^FuzzDecodeSnapshot$' -fuzztime 15s ./internal/persist

// addSeeds adds good plus a torn, a bit-flipped and a one-byte-longer copy
// of it to f's corpus.
func addSeeds(f *testing.F, good []byte) {
	f.Add(good)
	f.Add(append([]byte(nil), good[:len(good)-3]...))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), good...), 0))
}

// withFormat returns a copy of file with its format word — the uint32 at
// offset 8, behind the magic — rewritten to format.
func withFormat(file []byte, format uint32) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint32(out[8:], format)
	return out
}

func testFrames() [][]byte {
	var scratch []byte
	frame := func(r walRecord) []byte { return append([]byte(nil), encodeRecord(&scratch, r)...) }
	return [][]byte{
		frame(walRecord{version: 1, kind: recEdges, edges: edgesN(0, 3)}),
		frame(walRecord{version: 2, kind: recTombstone, mark: stream.WindowMark{Version: 5, Wall: 42}, edges: edgesN(4, 2)}),
		frame(walRecord{version: 3, kind: recEpochFence, epoch: 9}),
	}
}

// TestBitFlipsInWALPayloadAreRejected pins the checksum guarantee the fuzz
// target probes at random: flipping any single bit of a frame's
// CRC-protected region (the checksum itself, or the payload) makes the
// decoder reject the frame — a corrupt record is never applied.
func TestBitFlipsInWALPayloadAreRejected(t *testing.T) {
	for fi, frame := range testFrames() {
		for bit := 32; bit < 8*len(frame); bit++ { // skip the uncovered length word
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << (bit % 8)
			if _, _, ok := decodeRecord(mut); ok {
				t.Fatalf("frame %d: decoder accepted a flip at bit %d", fi, bit)
			}
		}
	}
}

// FuzzDecodeRecord hammers the WAL frame decoder: besides the shared
// properties, it must never accept a zero version or an edge-carrying
// fence, nor claim to have consumed more input than exists.
func FuzzDecodeRecord(f *testing.F) {
	frames := testFrames()
	for _, frame := range frames {
		addSeeds(f, frame)
	}
	addSeeds(f, append(append([]byte(nil), frames[0]...), frames[2]...)) // two frames back to back
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeRecord(data)
		if !ok {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if rec.version == 0 {
			t.Fatal("accepted a zero version")
		}
		if rec.kind == recEpochFence && len(rec.edges) != 0 {
			t.Fatal("accepted an edge-carrying fence")
		}
		var buf []byte
		if !bytes.Equal(encodeRecord(&buf, rec), data[:n]) {
			t.Fatal("decode/encode round-trip is not byte-identical")
		}
	})
}

// FuzzDecodeSnapshot drives decodeSnapshot and, through it,
// bipartite.ReadCSR. Any format word but 3 must be refused as such.
func FuzzDecodeSnapshot(f *testing.F) {
	g := stream.New()
	g.Append(edgesN(0, 6))
	g.Append(edgesN(3, 4))
	var buf bytes.Buffer
	hdr := SnapshotHeader{Version: 2, Mark: stream.WindowMark{Version: 1, Wall: 42}, WrittenAt: 99, Epoch: 3}
	if err := encodeSnapshot(&buf, snapOf(g), hdr); err != nil {
		f.Fatal(err)
	}
	addSeeds(f, buf.Bytes())
	f.Add(withFormat(buf.Bytes(), 1))
	f.Add(withFormat(buf.Bytes(), 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, hdr, err := decodeSnapshot(bytes.NewReader(data), "fuzz")
		if len(data) >= 12 && [8]byte(data[:8]) == snapMagic {
			if format := binary.LittleEndian.Uint32(data[8:]); format != snapFormat &&
				(err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported format %d", format))) {
				t.Fatalf("format %d: err = %v, want it refused as unsupported", format, err)
			}
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := encodeSnapshot(&out, g, hdr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("decode/encode round-trip is not byte-identical")
		}
	})
}

// FuzzDecodeFence drives the fence-file parser. Any format word but 1 must
// be refused.
func FuzzDecodeFence(f *testing.F) {
	for _, fs := range []fenceState{{epoch: 3, start: 41, owned: true}, {epoch: 4}} {
		good := encodeFence(fs)
		addSeeds(f, good)
		f.Add(withFormat(good, 2))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := decodeFence(data)
		if err != nil {
			return
		}
		if format := binary.LittleEndian.Uint32(data[8:]); format != fenceFormat {
			t.Fatalf("accepted format %d", format)
		}
		if !bytes.Equal(encodeFence(fs), data) {
			t.Fatal("decode/encode round-trip is not byte-identical")
		}
	})
}

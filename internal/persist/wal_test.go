package persist

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ensemfdet/internal/bipartite"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

func edgesN(start, n int) []bipartite.Edge {
	out := make([]bipartite.Edge, n)
	for i := range out {
		out[i] = bipartite.Edge{U: uint32(start + i), V: uint32(start + i + 1)}
	}
	return out
}

func TestWALAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil || len(recs) != 0 || torn {
		t.Fatalf("fresh openWAL: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
	batches := [][]bipartite.Edge{edgesN(0, 3), edgesN(10, 1), edgesN(20, 7)}
	for i, b := range batches {
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(i + 1), edges: b}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	_, recs, torn, err = openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	if len(recs) != len(batches) {
		t.Fatalf("scanned %d records, want %d", len(recs), len(batches))
	}
	for i, r := range recs {
		if r.version != uint64(i+1) || !reflect.DeepEqual(r.edges, batches[i]) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestWALSegmentRotationAndTruncation(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every batch after the first rotates.
	w, _, _, err := openWAL(dir, 48, true, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 5; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if segs, _ := w.diskStats(); segs < 3 {
		t.Fatalf("48-byte segments after 5 batches: %d segments, want rotation", segs)
	}

	// Truncating to version 3 must drop every segment fully covered by it
	// and keep all records above it.
	if err := w.truncateTo(3); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 48, true, testLogf(t))
	if err != nil || torn {
		t.Fatalf("reopen after truncate: torn=%v err=%v", torn, err)
	}
	keptVersions := map[uint64]bool{}
	for _, r := range recs {
		keptVersions[r.version] = true
	}
	if !keptVersions[4] || !keptVersions[5] {
		t.Fatalf("records above the watermark were dropped: %v", keptVersions)
	}
	if keptVersions[1] || keptVersions[2] || keptVersions[3] {
		t.Fatalf("covered records survived truncation: %v", keptVersions)
	}
}

// lastRecordRange locates the byte range of the final record in the only WAL
// segment, from the decoded record sizes.
func lastRecordRange(t *testing.T, data []byte) (start, end int) {
	t.Helper()
	recs, end := decodeRecords(data)
	if len(recs) == 0 || end != len(data) {
		t.Fatalf("pristine WAL does not decode: %d records, stopped at %d of %d bytes", len(recs), end, len(data))
	}
	return end - int(recs[len(recs)-1].frameSize()), end
}

// TestWALTornTailByteByByte is the crash matrix: for every truncation point
// and every flipped byte inside the final record — and for every way a crash
// can tear the magic of a freshly rotated segment — recovery must come back
// with exactly the fully-acknowledged prefix, warn, truncate the final
// segment to it, and stay appendable — never refuse to start.
func TestWALTornTailByteByByte(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	const full = 4
	for v := uint64(1); v <= full; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*100, 3)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	seg, next := segPath(dir, 1), segPath(dir, 2)
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	start, end := lastRecordRange(t, pristine)

	// check writes content as segment 1 and, when fresh is non-nil, fresh as
	// a final segment 2.
	check := func(name string, content, fresh []byte) {
		t.Helper()
		if err := os.WriteFile(seg, content, 0o644); err != nil {
			t.Fatal(err)
		}
		final, wantSize := seg, int64(start)
		if fresh == nil {
			if err := os.Remove(next); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		} else {
			if err := os.WriteFile(next, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
			final, wantSize = next, 0
		}
		w, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t))
		if err != nil {
			t.Fatalf("%s: recovery refused to start: %v", name, err)
		}
		if !torn {
			t.Fatalf("%s: torn tail not reported", name)
		}
		if len(recs) != full-1 {
			t.Fatalf("%s: recovered %d records, want the %d acknowledged ones", name, len(recs), full-1)
		}
		for i, r := range recs {
			if r.version != uint64(i+1) {
				t.Fatalf("%s: record %d has version %d", name, i, r.version)
			}
		}
		if size := fileSize(t, final); size != wantSize {
			t.Fatalf("%s: final segment truncated to %d bytes, want %d", name, size, wantSize)
		}
		// The log must remain appendable after truncation.
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(full), edges: edgesN(999, 1)}); err != nil {
			t.Fatalf("%s: append after truncation: %v", name, err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
	}

	// A crash right after rotation leaves the fresh segment holding part of
	// its magic, or zeros the filesystem exposed before the data landed.
	for cut := 1; cut < len(walMagic); cut++ {
		check("torn magic", pristine[:start], walMagic[:cut])
	}
	check("zero header", pristine[:start], make([]byte, len(walMagic)))

	for cut := start + 1; cut < end; cut++ {
		check("truncate", append([]byte(nil), pristine[:cut]...), nil)
	}
	for i := start; i < end; i++ {
		mut := append([]byte(nil), pristine...)
		mut[i] ^= 0x5a
		check("flip", mut, nil)
	}

	// A clean cut exactly at a record boundary is not torn.
	if err := os.WriteFile(seg, pristine[:start], 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 1<<20, true, testLogf(t))
	if err != nil || torn || len(recs) != full-1 {
		t.Fatalf("boundary cut: recs=%d torn=%v err=%v", len(recs), torn, err)
	}
}

// TestWALRefusesSealedCorruption pins the other half of the policy: a
// corrupt record in a sealed (non-final) segment holds acknowledged data and
// must refuse recovery rather than silently dropping it. So must a segment
// whose magic is missing — a headerless v1 segment, no longer read — in the
// sealed and in the final position alike; each refusal names the file.
func TestWALRefusesSealedCorruption(t *testing.T) {
	stripMagic := func(b []byte) []byte { return b[len(walMagic):] }
	for _, tc := range []struct {
		name   string
		index  uint64 // segment to damage; 3 is the final one
		damage func([]byte) []byte
		want   string
	}{
		{"flipped sealed record", 1, func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "refusing"},
		{"headerless sealed", 1, stripMagic, "headerless v1 segments are no longer read"},
		{"headerless final", 3, stripMagic, "headerless v1 segments are no longer read"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, _, err := openWAL(dir, 40, true, testLogf(t))
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(1); v <= 3; v++ {
				if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
					t.Fatal(err)
				}
			}
			if segs, _ := w.diskStats(); segs != 3 {
				t.Fatalf("setup needs one record in each of 3 segments, got %d segments", segs)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			path := segPath(dir, tc.index)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, _, err = openWAL(dir, 40, true, testLogf(t))
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), filepath.Base(path)) {
				t.Fatalf("err = %v, want a refusal naming %s: %q", err, filepath.Base(path), tc.want)
			}
		})
	}
}

func TestWALRejectsMalformedSegmentName(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-zz.wal"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWAL(dir, 1<<20, true, testLogf(t)); err == nil {
		t.Fatal("malformed segment name must error, not be silently skipped")
	}
}

// TestTruncateToleratesMissingSegment: a covered segment already gone from
// disk counts as removed; the survivor metadata must stay consistent.
func TestTruncateToleratesMissingSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, _, err := openWAL(dir, 40, true, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 4; v++ {
		if _, err := w.append(walRecord{kind: recEdges, version: v, edges: edgesN(int(v)*10, 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(segPath(dir, 1)); err != nil { // externally deleted
		t.Fatal(err)
	}
	if err := w.truncateTo(3); err != nil {
		t.Fatalf("truncate over a missing covered segment: %v", err)
	}
	segs, _ := w.diskStats()
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	_, recs, torn, err := openWAL(dir, 40, true, testLogf(t))
	if err != nil || torn {
		t.Fatalf("reopen: torn=%v err=%v", torn, err)
	}
	if len(recs) != 1 || recs[0].version != 4 {
		t.Fatalf("survivors = %+v, want only version 4", recs)
	}
	if segs < 1 {
		t.Fatalf("diskStats inconsistent after tolerant truncation: %d segments", segs)
	}
}

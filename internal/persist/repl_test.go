package persist

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// shipState downloads everything st's manifest lists into dir, laid out the
// way a follower bootstrap would — the persist-level half of replication.
func shipState(t *testing.T, st *Store, dir string) Manifest {
	t.Helper()
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"snap", "wal"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	ship := func(rc io.ReadCloser, size int64, dest string) {
		t.Helper()
		defer rc.Close()
		data, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != size {
			t.Fatalf("shipped %d bytes of %s, open reported %d", len(data), dest, size)
		}
		if err := os.WriteFile(dest, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if m.Snapshot != nil {
		rc, size, err := st.OpenSnapshotFile(m.Snapshot.Name)
		if err != nil {
			t.Fatal(err)
		}
		ship(rc, size, filepath.Join(dir, "snap", m.Snapshot.Name))
	}
	for _, seg := range m.Segments {
		rc, size, err := st.OpenSegmentFile(seg.Name)
		if err != nil {
			t.Fatal(err)
		}
		ship(rc, size, filepath.Join(dir, "wal", seg.Name))
	}
	return m
}

// TestManifestShipRecoversIdentically is the persist-level bootstrap pin:
// downloading the manifest's snapshot + segments verbatim into a fresh
// directory and recovering there must reproduce the source graph — version
// and CSR bytes — exactly, including state spread across several sealed
// segments and a mid-stream snapshot.
func TestManifestShipRecoversIdentically(t *testing.T) {
	srcDir := t.TempDir()
	st, g, _ := openDurable(t, srcDir, 4, Options{Fsync: FsyncAlways, SegmentBytes: 1 << 10})
	defer st.Close()
	for i, b := range randomBatches(11, 10, 30) {
		if res := g.Append(b); res.Err != nil {
			t.Fatal(res.Err)
		}
		if i == 4 {
			if err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}

	m := shipState(t, st, t.TempDir())
	if m.Snapshot == nil {
		t.Fatal("manifest lists no snapshot after an explicit Snapshot()")
	}
	if len(m.Segments) == 0 {
		t.Fatal("manifest lists no WAL segments despite post-snapshot appends")
	}
	for i := 1; i < len(m.Segments); i++ {
		if m.Segments[i-1].Name >= m.Segments[i].Name {
			t.Fatalf("segments out of order: %q before %q", m.Segments[i-1].Name, m.Segments[i].Name)
		}
	}

	dstDir := t.TempDir()
	shipState(t, st, dstDir)
	st2, g2, rec := openDurable(t, dstDir, 16, Options{Fsync: FsyncAlways})
	defer st2.Close()
	if rec.ReplayedRecords == 0 {
		t.Fatalf("shipped recovery replayed nothing: %+v", rec)
	}
	if g2.Version() != g.Version() {
		t.Fatalf("shipped recovery at version %d, source at %d", g2.Version(), g.Version())
	}
	snapA, _ := g.Snapshot()
	snapB, _ := g2.Snapshot()
	if !bytes.Equal(csrBytes(t, snapA), csrBytes(t, snapB)) {
		t.Fatal("shipped recovery diverged from the source CSR")
	}
}

// TestTailSinceChunkingAndResume pins the pagination contract: a tiny
// maxBytes still makes progress (≥1 record per call), resuming from each
// call's last version walks the whole log in ascending order with no gaps
// and no duplicates.
func TestTailSinceChunkingAndResume(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 1, Options{Fsync: FsyncAlways})
	defer st.Close()
	for _, b := range randomBatches(5, 12, 8) {
		if res := g.Append(b); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	var got []uint64
	from := uint64(0)
	for {
		payload, last, n, err := st.TailSince(from, 1) // absurdly small cap
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if n != 1 {
			t.Fatalf("maxBytes=1 returned %d records, want exactly the one-record minimum", n)
		}
		rec, _, ok := DecodeRecordFrame(payload)
		if !ok {
			t.Fatal("undecodable frame")
		}
		got = append(got, rec.Version)
		from = last
	}
	if uint64(len(got)) != g.Version() {
		t.Fatalf("tailed %d records, graph at version %d", len(got), g.Version())
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("tail walked %v, want consecutive versions from 1", got)
		}
	}
}

// TestTailGoneAfterTruncation pins the floor contract: once a snapshot
// truncates the log, a tail from below the floor is ErrTailGone — never a
// silent hole — and the floor survives a reopen, because recovery re-seeds
// it from the snapshot version even though the WAL might still cover more.
func TestTailGoneAfterTruncation(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	for _, b := range randomBatches(9, 6, 20) {
		if res := g.Append(b); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	snapVer := g.Version()
	if res := g.Append([]bipartite.Edge{{U: 900, V: 900}}); res.Err != nil {
		t.Fatal(res.Err)
	}

	if _, _, _, err := st.TailSince(0, 0); !errors.Is(err, ErrTailGone) {
		t.Fatalf("tail from 0 after truncation: %v, want ErrTailGone", err)
	}
	if _, last, n, err := st.TailSince(snapVer, 0); err != nil || n != 1 || last != snapVer+1 {
		t.Fatalf("tail from the floor: n=%d last=%d err=%v", n, last, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _, _ := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	defer st2.Close()
	if _, _, _, err := st2.TailSince(0, 0); !errors.Is(err, ErrTailGone) {
		t.Fatalf("tail from 0 after reopen: %v, want ErrTailGone", err)
	}
}

// TestTornActiveTailNeverShips pins the acknowledged-bytes limit: garbage
// appended to the active segment behind the store's back (a torn write) is
// invisible to the manifest, to OpenSegmentFile, and to TailSince.
func TestTornActiveTailNeverShips(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 1, Options{Fsync: FsyncAlways})
	defer st.Close()
	for i := 0; i < 3; i++ {
		if res := g.Append([]bipartite.Edge{{U: uint32(i), V: uint32(i)}}); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	m, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	active := m.Segments[len(m.Segments)-1]

	// Tear the tail: half a frame of garbage directly into the file.
	f, err := os.OpenFile(filepath.Join(dir, "wal", active.Name), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Segments[len(m2.Segments)-1].Bytes != active.Bytes {
		t.Fatalf("manifest bytes moved with the torn tail: %d → %d", active.Bytes, m2.Segments[len(m2.Segments)-1].Bytes)
	}
	rc, size, err := st.OpenSegmentFile(active.Name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || int64(len(data)) != size || size != active.Bytes {
		t.Fatalf("shipped %d bytes (reported %d), want the %d acknowledged", len(data), size, active.Bytes)
	}
	if _, _, n, err := st.TailSince(0, 0); err != nil || n != 3 {
		t.Fatalf("tail over a torn segment: n=%d err=%v, want the 3 acknowledged records", n, err)
	}
}

// TestShipNameValidation pins the no-traversal contract: only well-formed
// manifest names resolve, and everything else reports os.ErrNotExist.
func TestShipNameValidation(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 1, Options{Fsync: FsyncAlways})
	defer st.Close()
	if res := g.Append([]bipartite.Edge{{U: 1, V: 1}}); res.Err != nil {
		t.Fatal(res.Err)
	}
	for _, name := range []string{
		"../wal/seg-0000000000000001.wal",
		"seg-xyz.wal",
		"seg-0000000000000001.wal.tmp",
		"",
		"seg-00000000000000ff.wal", // well-formed but unknown index
	} {
		if _, _, err := st.OpenSegmentFile(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("OpenSegmentFile(%q): %v, want os.ErrNotExist", name, err)
		}
		if _, _, err := st.OpenSnapshotFile(name); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("OpenSnapshotFile(%q): %v, want os.ErrNotExist", name, err)
		}
	}
}

// TestManifestRacingSnapshots drives manifest reads and tails concurrently
// with appends and truncating snapshots — the shipping endpoints under churn.
// Run under -race; correctness here is "no torn listing, no error besides
// ErrTailGone".
func TestManifestRacingSnapshots(t *testing.T) {
	dir := t.TempDir()
	st, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncNever, SegmentBytes: 1 << 10})
	defer st.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i, b := range randomBatches(21, 60, 15) {
			if res := g.Append(b); res.Err != nil {
				t.Errorf("append %d: %v", i, res.Err)
				return
			}
			if i%10 == 9 {
				if err := st.Snapshot(); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.Manifest(); err != nil {
					t.Errorf("manifest under churn: %v", err)
					return
				}
				_, last, n, err := st.TailSince(from, 1<<12)
				switch {
				case errors.Is(err, ErrTailGone):
					from = g.Version() // resync: jump to the current version
				case err != nil:
					t.Errorf("tail under churn: %v", err)
					return
				case n > 0:
					if last <= from {
						t.Errorf("tail went backwards: from %d to %d", from, last)
						return
					}
					from = last
				}
			}
		}()
	}
	wg.Wait()
}

// TestAppendRecordExplicitVersions pins the follower's journaling path:
// records land at the versions they carry — holes included — and a reopen
// replays them into the same graph a primary's recovery would build.
func TestAppendRecordExplicitVersions(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncAlways, Logf: testLogf(t)})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Version: 2, Kind: RecordEdges, Edges: []bipartite.Edge{{U: 1, V: 1}, {U: 2, V: 2}}},
		{Version: 3, Kind: RecordEdges, Edges: []bipartite.Edge{{U: 3, V: 3}}},
		// Version 7: a hole, exactly as a degraded primary's tail would ship.
		{Version: 7, Kind: RecordEdges, Edges: []bipartite.Edge{{U: 7, V: 7}}},
		{Version: 9, Kind: RecordTombstone, Edges: []bipartite.Edge{{U: 2, V: 2}},
			Mark: stream.WindowMark{Version: 1, Wall: 42}},
	}
	for _, r := range recs {
		if err := st.AppendRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendRecord(Record{Version: 0, Kind: RecordEdges}); err == nil {
		t.Fatal("AppendRecord accepted version 0")
	}
	if err := st.AppendRecord(Record{Version: 10, Kind: 99}); err == nil {
		t.Fatal("AppendRecord accepted an unknown kind")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, g, rec := openDurable(t, dir, 2, Options{Fsync: FsyncAlways})
	defer st2.Close()
	if rec.ReplayedRecords != len(recs) {
		t.Fatalf("replayed %d records, want %d", rec.ReplayedRecords, len(recs))
	}
	if g.Version() != 9 {
		t.Fatalf("recovered version %d, want 9 (the highest explicit version)", g.Version())
	}
	snap, _ := g.Snapshot()
	if snap.NumEdges() != 3 {
		t.Fatalf("recovered %d edges, want 3 (4 appended, 1 tombstoned)", snap.NumEdges())
	}
	if snap.HasEdge(2, 2) {
		t.Fatal("tombstoned edge survived recovery")
	}
	if g.WindowStats().Mark.Version != 1 {
		t.Fatalf("recovered watermark %+v, want version 1", g.WindowStats().Mark)
	}
}

// TestHasStateAndEncodeDecodeFrame covers the small helpers: HasState flips
// only on real bytes, and a frame in the layout TailSince concatenates
// round-trips through DecodeRecordFrame.
func TestHasStateAndEncodeDecodeFrame(t *testing.T) {
	dir := t.TempDir()
	if HasState(dir) {
		t.Fatal("empty dir reports state")
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "seg-0000000000000001.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if HasState(dir) {
		t.Fatal("empty segment file reports state")
	}
	if err := os.WriteFile(filepath.Join(dir, "wal", "seg-0000000000000001.wal"), []byte{1}, 0o644); err != nil {
		t.Fatal(err)
	}
	if !HasState(dir) {
		t.Fatal("non-empty segment does not report state")
	}

	in := Record{Version: 12, Kind: RecordTombstone, Mark: stream.WindowMark{Version: 4, Wall: 99},
		Edges: []bipartite.Edge{{U: 8, V: 9}}}
	var buf []byte
	frame := encodeRecord(&buf, walRecord{kind: in.Kind, version: in.Version, edges: in.Edges, mark: in.Mark})
	out, n, ok := DecodeRecordFrame(frame)
	if !ok || n != len(frame) {
		t.Fatalf("round-trip failed: ok=%v n=%d len=%d", ok, n, len(frame))
	}
	if out.Version != in.Version || out.Kind != in.Kind || out.Mark != in.Mark ||
		len(out.Edges) != 1 || out.Edges[0] != in.Edges[0] {
		t.Fatalf("round-trip mismatch: %+v vs %+v", out, in)
	}
}

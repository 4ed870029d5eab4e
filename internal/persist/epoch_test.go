package persist

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// snapOf cuts g's current bipartite snapshot, discarding the version.
func snapOf(g *stream.Graph) *bipartite.Graph {
	s, _ := g.Snapshot()
	return s
}

// TestFencelessDirRecoveryAndPromote pins a data directory that no promote
// or adopt ever touched — no fence file, no fence records: it recovers at
// epoch 0 with ingest owned (the single-primary behaviour), its snapshot
// plus a segment of edge batches and a tombstone replay byte-identically,
// and the first promote on top of that history survives a reboot.
func TestFencelessDirRecoveryAndPromote(t *testing.T) {
	dir := t.TempDir()
	batches := randomBatches(11, 8, 40)
	st, g, _ := openDurable(t, dir, 4, Options{Fsync: FsyncNever})
	for _, b := range batches[:5] {
		g.Append(b)
	}
	if err := st.Snapshot(); err != nil { // version 5; the WAL restarts after it
		t.Fatal(err)
	}
	for _, b := range batches[5:] {
		g.Append(b)
	}
	if res := g.Remove(batches[0][:5]); res.Err != nil || res.Removed == 0 || res.Version != 9 {
		t.Fatalf("tombstone at version 9: %+v", res)
	}
	live := csrBytes(t, snapOf(g))
	// Crash: no Close. Nothing has written a fence.
	if _, err := os.Stat(filepath.Join(dir, fenceFileName)); !os.IsNotExist(err) {
		t.Fatalf("fence file present before any promote: %v", err)
	}

	// Recover into a different shard layout, the way every crash-recovery
	// pin in this package does.
	st2, g2, rec := openDurable(t, dir, 3, Options{Fsync: FsyncNever})
	if epoch, start, owned := st2.Epoch(); epoch != 0 || start != 0 || !owned {
		t.Fatalf("fence-less dir recovered to epoch %d start %d owned %v, want 0/0/owned", epoch, start, owned)
	}
	if rec.SnapshotVersion != 5 || rec.ReplayedRecords != 4 || rec.ReplayedTombstones != 1 {
		t.Fatalf("recovery stats %+v, want snapshot 5 and 4 replayed records, 1 a tombstone", rec)
	}
	if g2.Version() != 9 {
		t.Fatalf("recovered version %d, want 9", g2.Version())
	}
	if !bytes.Equal(csrBytes(t, snapOf(g2)), live) {
		t.Fatal("recovered graph differs from the crashed run")
	}

	// Ingest continues, and a promotion layers the first fence on top.
	if res := g2.Append(batches[0]); res.Err != nil || res.Version != 10 {
		t.Fatalf("ingest on the recovered store: %+v", res)
	}
	if err := st2.PromoteEpoch(1, g2.Version()+1); err != nil {
		t.Fatalf("promoting on top of fence-less history: %v", err)
	}
	g2.AdvanceVersionTo(11)
	want := csrBytes(t, snapOf(g2))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, g3, _ := openDurable(t, dir, 2, Options{Fsync: FsyncNever})
	defer st3.Close()
	if epoch, start, owned := st3.Epoch(); epoch != 1 || start != 11 || !owned {
		t.Fatalf("rebooted epoch %d start %d owned %v, want 1/11/owned", epoch, start, owned)
	}
	if g3.Version() != 11 {
		t.Fatalf("rebooted version %d, want 11", g3.Version())
	}
	if !bytes.Equal(csrBytes(t, snapOf(g3)), want) {
		t.Fatal("rebooted graph differs from the promoted run")
	}
}

package persist

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

func benchGraph(edges int) *bipartite.Graph {
	rng := rand.New(rand.NewSource(1))
	b := bipartite.NewBuilderSized(edges/8, edges/8, edges)
	for i := 0; i < edges; i++ {
		b.AddEdge(uint32(rng.Intn(edges/8)), uint32(rng.Intn(edges/8)))
	}
	return b.Build()
}

// BenchmarkWALAppend measures the journal tee alone (no fsync, so the OS
// page cache is the ceiling): the framing+CRC cost a durable ingest batch
// pays on top of the in-memory append.
func BenchmarkWALAppend(b *testing.B) {
	const batch = 256
	edges := edgesN(0, batch)
	w, _, _, err := openWAL(b.TempDir(), defaultSegmentBytes, false, b.Logf)
	if err != nil {
		b.Fatal(err)
	}
	defer w.close()
	b.SetBytes(int64(walFrameBytes + 16 + 8*batch)) // v2 edge-record framing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(i + 1), edges: edges}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendFsync is the durable-by-default path: one fsync per
// acknowledged batch. Expect device flush latency, not CPU, to dominate.
func BenchmarkWALAppendFsync(b *testing.B) {
	const batch = 256
	edges := edgesN(0, batch)
	w, _, _, err := openWAL(b.TempDir(), defaultSegmentBytes, true, b.Logf)
	if err != nil {
		b.Fatal(err)
	}
	defer w.close()
	b.SetBytes(int64(walFrameBytes + 16 + 8*batch)) // v2 edge-record framing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.append(walRecord{kind: recEdges, version: uint64(i + 1), edges: edges}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode measures the CSR snapshot codec write path.
func BenchmarkSnapshotEncode(b *testing.B) {
	g := benchGraph(1 << 16)
	var buf bytes.Buffer
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bipartite.WriteCSR(io.Discard, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotDecode measures boot-time snapshot loading, validation
// included — the latency floor of a recovery with an up-to-date snapshot.
func BenchmarkSnapshotDecode(b *testing.B) {
	g := benchGraph(1 << 16)
	var buf bytes.Buffer
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bipartite.ReadCSR(bytes.NewReader(enc)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures a full boot: open the store, load the
// snapshot, replay a WAL tail into a sharded stream graph.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	st, err := Open(dir, Options{Fsync: FsyncNever, Logf: b.Logf})
	if err != nil {
		b.Fatal(err)
	}
	g := stream.NewSharded(4)
	if _, err := st.Recover(g); err != nil {
		b.Fatal(err)
	}
	g.SetJournal(st)
	st.SetSource(g)
	rng := rand.New(rand.NewSource(2))
	for batch := 0; batch < 64; batch++ {
		edges := make([]bipartite.Edge, 512)
		for i := range edges {
			edges[i] = bipartite.Edge{U: uint32(rng.Intn(1 << 13)), V: uint32(rng.Intn(1 << 13))}
		}
		if res := g.Append(edges); res.Err != nil {
			b.Fatal(res.Err)
		}
		if batch == 31 {
			if err := st.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.wal.sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2, err := Open(dir, Options{Fsync: FsyncNever, Logf: b.Logf})
		if err != nil {
			b.Fatal(err)
		}
		g2 := stream.NewSharded(4)
		if _, err := st2.Recover(g2); err != nil {
			b.Fatal(err)
		}
		if g2.Version() != g.Version() {
			b.Fatalf("recovered version %d, want %d", g2.Version(), g.Version())
		}
		if err := st2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// sync flushes the active segment to disk regardless of policy.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("persist: WAL fsync: %w", err)
	}
	w.fsyncs++
	return nil
}

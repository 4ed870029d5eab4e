package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// TestVotesByteIdenticalAcrossShardCounts is the acceptance pin for the
// sharded spine: for a fixed edge stream and seed, the ensemble votes served
// by engines over 1-, 4-, and 16-shard graphs — ingested in many small
// batches so the incremental snapshot path does the building — must be
// byte-identical, and identical to a single-batch (full-rebuild) ingest.
func TestVotesByteIdenticalAcrossShardCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := make([]bipartite.Edge, 0, 2600)
	for i := 0; i < 2000; i++ {
		edges = append(edges, bipartite.Edge{U: uint32(rng.Intn(400)), V: uint32(rng.Intn(400))})
	}
	for u := 0; u < 25; u++ {
		for v := 0; v < 12; v++ {
			edges = append(edges, bipartite.Edge{U: uint32(400 + u), V: uint32(400 + v)})
		}
	}
	p := Params{NumSamples: 16, SampleRatio: 0.2, Seed: 5}

	votesFor := func(shards, batch int) *SparseVotes {
		t.Helper()
		g := stream.NewSharded(shards)
		for off := 0; off < len(edges); off += batch {
			g.Append(edges[off:min(off+batch, len(edges))])
		}
		e := NewEngine(g, Options{})
		vs, err := e.Votes(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return vs.Votes
	}

	ref := votesFor(1, len(edges)) // unsharded, one batch: the full-build baseline
	for _, shards := range []int{1, 4, 16} {
		if got := votesFor(shards, 64); !equalVotes(got, ref) {
			t.Errorf("shards=%d: incremental ingest votes diverge from unsharded full build", shards)
		}
	}
}

// TestConcurrentAppendSnapshotDetect interleaves ingest, snapshotting, and
// detection across shard counts under -race: versions served by detections
// must be monotone per client, snapshots must stay valid, and cached vote
// vectors must never be mutated by later activity.
func TestConcurrentAppendSnapshotDetect(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run("", func(t *testing.T) {
			g := stream.NewSharded(shards)
			g.Append(seedEdges())
			e := NewEngine(g, Options{MaxConcurrent: 2})
			ctx := context.Background()

			var wg sync.WaitGroup
			// Writers: fresh random edges, occasionally re-ingesting dups.
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 40; i++ {
						batch := make([]bipartite.Edge, 16)
						for j := range batch {
							batch[j] = bipartite.Edge{U: uint32(rng.Intn(600)), V: uint32(rng.Intn(600))}
						}
						if _, err := e.Ingest(batch); err != nil {
							t.Error(err)
							return
						}
					}
				}(int64(w + 1))
			}
			// Snapshotters.
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lastV uint64
				for i := 0; i < 60; i++ {
					s, v := g.Snapshot()
					if v < lastV {
						t.Errorf("snapshot version went backwards: %d after %d", v, lastV)
						return
					}
					lastV = v
					if err := s.Validate(); err != nil {
						t.Errorf("invalid snapshot: %v", err)
						return
					}
				}
			}()
			// Detectors: small ensembles, rotating seeds; responses must be
			// monotone in graph version, and a vote vector captured early
			// must stay frozen.
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					var lastV uint64
					var pinned, pinnedCopy *SparseVotes
					for i := 0; i < 15; i++ {
						vs, err := e.Votes(ctx, Params{NumSamples: 4, SampleRatio: 0.3, Seed: seed + int64(i%3)})
						if err != nil {
							t.Error(err)
							return
						}
						if vs.GraphVersion < lastV {
							t.Errorf("detection version went backwards: %d after %d", vs.GraphVersion, lastV)
							return
						}
						lastV = vs.GraphVersion
						if pinned == nil {
							pinned = vs.Votes
							pinnedCopy = cloneVotes(pinned)
						}
					}
					if !equalVotes(pinned, pinnedCopy) {
						t.Error("cached vote vector mutated by later activity")
					}
				}(int64(100 * (w + 1)))
			}
			wg.Wait()

			if st := e.Stats(); st.Build == nil || st.Build.DeltaBuilds+st.Build.FullBuilds == 0 {
				t.Errorf("no snapshot builds recorded: %+v", st.Build)
			}
		})
	}
}

// seedEdges plants the dense block used across the serve tests.
func seedEdges() []bipartite.Edge {
	rng := rand.New(rand.NewSource(1))
	batch := make([]bipartite.Edge, 0, 2300)
	for i := 0; i < 2000; i++ {
		batch = append(batch, bipartite.Edge{U: uint32(rng.Intn(400)), V: uint32(rng.Intn(400))})
	}
	for u := 0; u < 25; u++ {
		for v := 0; v < 12; v++ {
			batch = append(batch, bipartite.Edge{U: uint32(400 + u), V: uint32(400 + v)})
		}
	}
	return batch
}

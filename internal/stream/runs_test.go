package stream

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
)

// TestStampsExactUnderOutOfOrderCommits has four producers append globally
// unique batches concurrently, so batches that share a shard can commit
// their versions in the opposite order to their appends, then retires once
// by version age: the survivors must be exactly the edges whose own batch
// version is inside the window.
func TestStampsExactUnderOutOfOrderCommits(t *testing.T) {
	const producers, batches, batchLen = 4, 100, 8
	outOfOrder := 0
	for _, shards := range []int{1, 2, 8} {
		for _, seed := range []int64{1, 2, 3} {
			for _, k := range []uint64{1, 13, 200, 399} {
				g := NewSharded(shards)
				vers := make([]map[bipartite.Edge]uint64, producers)
				var wg sync.WaitGroup
				for w := 0; w < producers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed*producers + int64(w)))
						got := make(map[bipartite.Edge]uint64, batches*batchLen)
						for i := 0; i < batches; i++ {
							batch := make([]bipartite.Edge, batchLen)
							for j := range batch {
								// Unique users make every edge fresh; the
								// batch spans up to eight shards.
								u := (w*batches+i)*batchLen + j
								batch[j] = bipartite.Edge{U: uint32(u), V: uint32(rng.Intn(50))}
							}
							res := g.Append(batch)
							if res.Added != batchLen {
								t.Errorf("append added %d of %d fresh edges", res.Added, batchLen)
								return
							}
							for _, e := range batch {
								got[e] = res.Version
							}
						}
						vers[w] = got
					}(w)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				if err := checkRuns(g); err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if runsOutOfOrder(g) {
					outOfOrder++
				}

				last := g.Version()
				want := map[bipartite.Edge]bool{}
				for _, got := range vers {
					for e, v := range got {
						if v > last-k {
							want[e] = true
						}
					}
				}
				g.SetWindow(WindowPolicy{MaxVersions: k})
				res := g.Retire(time.Now())
				if res.Removed != producers*batches*batchLen-len(want) {
					t.Fatalf("shards=%d seed=%d k=%d: removed %d, want %d",
						shards, seed, k, res.Removed, producers*batches*batchLen-len(want))
				}
				snap, _ := g.Snapshot()
				live := snap.EdgeList()
				if len(live) != len(want) {
					t.Fatalf("shards=%d seed=%d k=%d: %d survivors, want %d", shards, seed, k, len(live), len(want))
				}
				for _, e := range live {
					if !want[e] {
						t.Fatalf("shards=%d seed=%d k=%d: %v survived outside the window", shards, seed, k, e)
					}
				}
				if err := checkRuns(g); err != nil {
					t.Fatalf("shards=%d after retire: %v", shards, err)
				}
			}
		}
	}
	t.Logf("%d of 36 graphs committed same-shard batches out of append order", outOfOrder)
}

// stampModel is the reference for the stream's documented semantics: every
// live edge with the (version, wall time) its batch committed as, aged by
// the WindowPolicy rules, restamped wholesale by RestoreAt.
type stampModel struct {
	ver, lastIngest uint64
	live            map[bipartite.Edge]modelStamp
	nu, nm          int
}

type modelStamp struct {
	ver uint64
	at  int64
}

func (m *stampModel) append(batch []bipartite.Edge, at int64) {
	var fresh []bipartite.Edge
	for _, e := range batch {
		if _, ok := m.live[e]; !ok && !slices.Contains(fresh, e) {
			fresh = append(fresh, e)
		}
	}
	if len(fresh) == 0 {
		return
	}
	m.ver++
	m.lastIngest = m.ver
	for _, e := range fresh {
		m.live[e] = modelStamp{m.ver, at}
		m.nu = max(m.nu, int(e.U)+1)
		m.nm = max(m.nm, int(e.V)+1)
	}
}

func (m *stampModel) remove(edges []bipartite.Edge) {
	n := len(m.live)
	for _, e := range edges {
		delete(m.live, e)
	}
	if len(m.live) < n {
		m.ver++
	}
}

// retire applies p at now: version and wall age first, then MaxEdges drops
// whole versions oldest-first and trims the boundary version's canonically
// smallest edges so the survivors land exactly on the cap.
func (m *stampModel) retire(p WindowPolicy, now int64) {
	var dead []bipartite.Edge
	byVer := map[uint64][]bipartite.Edge{}
	for e, s := range m.live {
		switch {
		case p.MaxVersions > 0 && s.ver+p.MaxVersions <= m.lastIngest,
			p.MaxAge > 0 && s.at <= now-int64(p.MaxAge):
			dead = append(dead, e)
		default:
			byVer[s.ver] = append(byVer[s.ver], e)
		}
	}
	if p.MaxEdges > 0 {
		excess := len(m.live) - len(dead) - p.MaxEdges
		vers := make([]uint64, 0, len(byVer))
		for v := range byVer {
			vers = append(vers, v)
		}
		slices.Sort(vers)
		for _, v := range vers {
			if excess <= 0 {
				break
			}
			es := byVer[v]
			slices.SortFunc(es, func(a, b bipartite.Edge) int {
				return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
			})
			n := min(excess, len(es))
			dead = append(dead, es[:n]...)
			excess -= n
		}
	}
	m.remove(dead)
}

func (m *stampModel) restore(ver uint64, wall int64) {
	m.lastIngest = ver
	for e := range m.live {
		m.live[e] = modelStamp{ver, wall}
	}
}

func (m *stampModel) csr(t *testing.T) []byte {
	t.Helper()
	edges := make([]bipartite.Edge, 0, len(m.live))
	for e := range m.live {
		edges = append(edges, e)
	}
	g, err := bipartite.FromEdges(m.nu, m.nm, edges)
	if err != nil {
		t.Fatal(err)
	}
	return csrBytes(t, g)
}

// modelScripts are the seeds TestStreamMatchesModel replays. A script that
// ever fails is shrunk by hand to the shortest failing seed and step count
// and kept here as its own row.
var modelScripts = []struct {
	seed  int64
	steps int
}{
	{1, 160}, {2, 160}, {3, 160}, {4, 160}, {5, 160},
}

// TestStreamMatchesModel runs seeded random scripts of Append, Remove,
// Retire (under every window bound, the clock driven through g.now),
// Snapshot and one mid-script RestoreAt into a fresh graph, and after every
// step compares the stream's snapshot bytes, version and sizes with a full
// rebuild of the model's live set.
func TestStreamMatchesModel(t *testing.T) {
	for _, sc := range modelScripts {
		for _, shards := range []int{1, 2, 8} {
			runModelScript(t, sc.seed, sc.steps, shards)
		}
	}
}

func runModelScript(t *testing.T, seed int64, steps, shards int) {
	t.Helper()
	const users, merchants = 120, 90
	rng := rand.New(rand.NewSource(seed))
	clock := time.Unix(1_000_000, 0)
	g := NewSharded(shards)
	g.now = func() time.Time { return clock }
	m := &stampModel{live: map[bipartite.Edge]modelStamp{}}
	var lastBatch []bipartite.Edge

	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		var op string
		switch r := rng.Intn(20); {
		case step == steps/2:
			op = "restore"
			snap, v, mark := g.SnapshotWithMark()
			g = NewSharded(shards)
			g.now = func() time.Time { return clock }
			if err := g.RestoreAt(snap, v, mark, clock.UnixNano()); err != nil {
				t.Fatal(err)
			}
			m.restore(v, clock.UnixNano())
		case r < 10:
			op = "append"
			lastBatch = make([]bipartite.Edge, 1+rng.Intn(300))
			for i := range lastBatch {
				lastBatch[i] = bipartite.Edge{U: uint32(rng.Intn(users)), V: uint32(rng.Intn(merchants))}
			}
			g.Append(lastBatch)
			m.append(lastBatch, clock.UnixNano())
		case r < 12:
			op = "remove"
			var dead []bipartite.Edge
			for _, e := range lastBatch {
				if rng.Intn(3) == 0 {
					dead = append(dead, e)
				}
			}
			dead = append(dead, bipartite.Edge{U: uint32(rng.Intn(users)), V: uint32(rng.Intn(merchants))})
			g.Remove(dead)
			m.remove(dead)
		case r < 17:
			op = "retire"
			var p WindowPolicy
			for !p.Enabled() {
				if rng.Intn(2) == 0 {
					p.MaxVersions = uint64(1 + rng.Intn(25))
				}
				if rng.Intn(2) == 0 {
					p.MaxEdges = 50 + rng.Intn(2000)
				}
				if rng.Intn(2) == 0 {
					p.MaxAge = time.Duration(5+rng.Intn(60)) * time.Second
				}
			}
			g.SetWindow(p)
			g.Retire(clock)
			m.retire(p, clock.UnixNano())
		default:
			op = "snapshot"
		}

		snap, v := g.Snapshot()
		if v != m.ver {
			t.Fatalf("seed=%d shards=%d step %d (%s): version %d, model %d", seed, shards, step, op, v, m.ver)
		}
		if !bytes.Equal(csrBytes(t, snap), m.csr(t)) {
			t.Fatalf("seed=%d shards=%d step %d (%s): snapshot diverges from the model", seed, shards, step, op)
		}
		sum := 0
		for _, sz := range g.ShardSizes() {
			sum += sz.NumEdges
		}
		if st := g.Stats(); sum != st.NumEdges || st.NumEdges != len(m.live) {
			t.Fatalf("seed=%d shards=%d step %d (%s): shard sizes sum to %d, stats %d, model %d",
				seed, shards, step, op, sum, st.NumEdges, len(m.live))
		}
		if err := checkRuns(g); err != nil {
			t.Fatalf("seed=%d shards=%d step %d (%s): %v", seed, shards, step, op, err)
		}
	}
}

// heapInUse returns the live heap after a double GC.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkStreamResidentBytes reports the graph's resident bytes per live
// edge — dedup set, edge log and stamps — once 1<<20 fresh edges have gone
// in, by batch size and shard count. Batch 1 is the stamp table's worst
// case, one row per edge. The touched-node history is switched off: it is
// bounded by its node budget, not by the live edge count. Run with
// -benchtime=1x; the numbers are memory metrics, not timings.
func BenchmarkStreamResidentBytes(b *testing.B) {
	const n = 1 << 20
	edges := make([]bipartite.Edge, n)
	for i := range edges {
		edges[i] = bipartite.Edge{U: uint32(i >> 4), V: uint32(i&15) * 4099}
	}
	for _, batch := range []int{1, 128, 4096} {
		for _, shards := range []int{1, 2} {
			b.Run(fmt.Sprintf("batch=%d/shards=%d", batch, shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					base := heapInUse()
					g := NewSharded(shards)
					g.SetDeltaHistoryLimit(0)
					for off := 0; off < n; off += batch {
						g.Append(edges[off : off+batch])
					}
					bytes := float64(heapInUse() - base)
					b.ReportMetric(bytes/n, "B/edge")
					runtime.KeepAlive(g)
				}
			})
		}
	}
}

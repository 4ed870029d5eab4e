package stream

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"maps"
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
				g.SetWindow(WindowPolicy{MaxVersions: k})
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
// the WindowPolicy rules and restamped wholesale by RestoreAt.
type stampModel struct {
	ver, lastIngest uint64
	live            map[bipartite.Edge]modelStamp
	nu, nm          int
	// capVer is the version of the newest capture: a live edge stamped at or
	// below it is in the captured base.
	capVer uint64
	// built caches graph's CSR, built at version builtAt.
	built   *bipartite.Graph
	builtAt uint64
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

// retire mirrors Retire at now under the graph's policy p (a no-op for the
// zero policy): version and wall age first, then MaxEdges drops whole
// versions oldest-first and trims the boundary version's canonically
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
			slices.SortFunc(es, edgeOrder)
			n := min(excess, len(es))
			dead = append(dead, es[:n]...)
			excess -= n
		}
	}
	m.remove(dead)
}

// restore mirrors RestoreAt into a new graph made with the same policy:
// every edge is stamped at the snapshot, which is the newest capture.
func (m *stampModel) restore(ver uint64, wall int64) {
	m.lastIngest, m.capVer = ver, ver
	for e := range m.live {
		m.live[e] = modelStamp{ver, wall}
	}
}

// graph returns the CSR the stream's snapshot must equal. Every caller has
// just snapshotted the stream, so graph is also the model's capture. The
// live set changes only with the version, so the CSR is rebuilt only then.
func (m *stampModel) graph(t *testing.T) *bipartite.Graph {
	t.Helper()
	m.capVer = m.ver
	if m.built != nil && m.builtAt == m.ver {
		return m.built
	}
	// Counted into grid order, which is the CSR's order: the build's own sort
	// then runs in linear time.
	on := make([]bool, m.nu*m.nm)
	for e := range m.live {
		on[int(e.U)*m.nm+int(e.V)] = true
	}
	edges := make([]bipartite.Edge, 0, len(m.live))
	for i, live := range on {
		if live {
			edges = append(edges, bipartite.Edge{U: uint32(i / m.nm), V: uint32(i % m.nm)})
		}
	}
	g, err := bipartite.FromEdges(m.nu, m.nm, edges)
	if err != nil {
		t.Fatal(err)
	}
	m.built, m.builtAt = g, m.ver
	return g
}

// sameCSR reports whether a and b hold the same CSR arrays: sizes, both
// sides' offsets and both adjacency arrays, which is all the codec writes.
func sameCSR(a, b *bipartite.Graph) bool {
	if a.NumUsers() != b.NumUsers() || a.NumMerchants() != b.NumMerchants() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := uint32(0); int(u) < a.NumUsers(); u++ {
		as, ae := a.UserRowRange(u)
		if bs, be := b.UserRowRange(u); as != bs || ae != be {
			return false
		}
	}
	for v := uint32(0); int(v) < a.NumMerchants(); v++ {
		as, ae := a.MerchantRowRange(v)
		if bs, be := b.MerchantRowRange(v); as != bs || ae != be {
			return false
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		if a.UserAdjAt(i) != b.UserAdjAt(i) || a.MerchantAdjAt(i) != b.MerchantAdjAt(i) {
			return false
		}
	}
	return true
}

// edgeOrder is the canonical (user, merchant) order.
func edgeOrder(a, b bipartite.Edge) int {
	return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
}

// windowRows is the fixed table of policies every script replays under, a
// policy its graphs are made with: no window, each bound alone, and all three
// together, named by windowRowNames. The count bound keeps an eighth of the
// script's id grid.
func windowRows(grid int) []WindowPolicy {
	const versions, age = 12, 30 * time.Second
	return []WindowPolicy{
		{},
		{MaxVersions: versions},
		{MaxEdges: grid / 8},
		{MaxAge: age},
		{MaxVersions: versions, MaxEdges: grid / 8, MaxAge: age},
	}
}

var windowRowNames = []string{"none", "versions", "edges", "age", "all"}

// modelUsers and modelMerchants span the id grid of modelScripts.
const modelUsers, modelMerchants = 120, 90

// modelScripts are the seeds TestStreamMatchesModel replays. A script that
// ever fails is shrunk by hand to the shortest failing seed and step count
// and kept here as its own row.
var modelScripts = []struct {
	seed  int64
	steps int
}{
	{1, 160}, {2, 160}, {3, 160}, {4, 160}, {5, 160},
}

// sparseScript sizes a capture-sparse script: its step count, the largest
// append, and the id grid its edges are drawn from.
type sparseScript struct {
	steps, maxBatch  int
	users, merchants int
}

// sparseScripts are the seeds of the capture-sparse family: scripts that
// capture only on explicit steps, so appends, removes, retires and re-adds
// pile up between captures.
var sparseScripts = []struct {
	seed int64
	sparseScript
}{
	{11, sparseScript{200, 100, 120, 90}},
	{12, sparseScript{200, 100, 120, 90}},
	{13, sparseScript{200, 100, 120, 90}},
}

// TestStreamMatchesModel runs seeded random scripts of Append, Remove,
// Retire (the clock driven through g.now), Snapshot and one mid-script
// RestoreAt into a fresh graph, each under every row of windowRows, and
// after every step compares the stream's snapshot (array for array),
// version and sizes with a full rebuild of the model's live set. The
// capture-sparse family checks every append's dedup counts against the
// model instead, and captures only now and then. Every windowed run must
// retire something, or its row tested nothing the unwindowed row does not.
// The rows run in parallel.
func TestStreamMatchesModel(t *testing.T) {
	for row, name := range windowRowNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, sc := range modelScripts {
				p := windowRows(modelUsers * modelMerchants)[row]
				for _, shards := range []int{1, 2, 8} {
					if n := runModelScript(t, sc.seed, sc.steps, shards, p); p.Enabled() && n == 0 {
						t.Errorf("seed=%d shards=%d window %+v: no retire removed an edge", sc.seed, shards, p)
					}
				}
			}
			for _, sc := range sparseScripts {
				p := windowRows(sc.users * sc.merchants)[row]
				for _, shards := range []int{1, 2, 8} {
					n := runSparseScript(t, rand.New(rand.NewSource(sc.seed)), sc.sparseScript, shards, p)
					if p.Enabled() && n == 0 {
						t.Errorf("sparse seed=%d shards=%d window %+v: no retire removed an edge", sc.seed, shards, p)
					}
				}
			}
		})
	}
}

// runModelScript plays a model script on graphs made with policy p and
// returns how many edges its retires removed.
func runModelScript(t *testing.T, seed int64, steps, shards int, p WindowPolicy) (retired int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	clock := time.Unix(1_000_000, 0)
	newGraph := func() *Graph {
		g := NewSharded(shards)
		g.SetWindow(p)
		g.now = func() time.Time { return clock }
		return g
	}
	g := newGraph()
	m := &stampModel{live: map[bipartite.Edge]modelStamp{}}
	var lastBatch []bipartite.Edge

	for step := 0; step < steps; step++ {
		clock = clock.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
		var op string
		switch r := rng.Intn(20); {
		case step == steps/2:
			op = "restore"
			snap, v, mark := g.SnapshotWithMark()
			g = newGraph()
			if err := g.RestoreAt(snap, v, mark, clock.UnixNano()); err != nil {
				t.Fatal(err)
			}
			m.restore(v, clock.UnixNano())
		case r < 10:
			op = "append"
			lastBatch = make([]bipartite.Edge, 1+rng.Intn(300))
			for i := range lastBatch {
				lastBatch[i] = bipartite.Edge{U: uint32(rng.Intn(modelUsers)), V: uint32(rng.Intn(modelMerchants))}
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
			dead = append(dead, bipartite.Edge{U: uint32(rng.Intn(modelUsers)), V: uint32(rng.Intn(modelMerchants))})
			g.Remove(dead)
			m.remove(dead)
		case r < 17:
			op = "retire"
			retired += g.Retire(clock).Removed
			m.retire(p, clock.UnixNano())
		default:
			op = "snapshot"
		}

		snap, v := g.Snapshot()
		if v != m.ver {
			t.Fatalf("seed=%d shards=%d window %+v step %d (%s): version %d, model %d", seed, shards, p, step, op, v, m.ver)
		}
		if !sameCSR(snap, m.graph(t)) {
			t.Fatalf("seed=%d shards=%d window %+v step %d (%s): snapshot diverges from the model", seed, shards, p, step, op)
		}
		sum := 0
		for _, sz := range g.ShardSizes() {
			sum += sz.NumEdges
		}
		if st := g.Stats(); sum != st.NumEdges || st.NumEdges != len(m.live) {
			t.Fatalf("seed=%d shards=%d window %+v step %d (%s): shard sizes sum to %d, stats %d, model %d",
				seed, shards, p, step, op, sum, st.NumEdges, len(m.live))
		}
		if err := checkRuns(g); err != nil {
			t.Fatalf("seed=%d shards=%d window %+v step %d (%s): %v", seed, shards, p, step, op, err)
		}
	}
	return retired
}

// choices is the source a capture-sparse script draws from: a seeded
// *rand.Rand, or fuzzer bytes.
type choices interface{ Intn(n int) int }

// byteChoices draws from fuzzer bytes: one per draw below 256, two above;
// an exhausted input reads as zeros.
type byteChoices struct{ b []byte }

func (c *byteChoices) Intn(n int) int {
	w := 1
	if n > 256 {
		w = 2
	}
	if len(c.b) < w {
		c.b = nil
		return 0
	}
	v := int(c.b[0])
	if w == 2 {
		v = int(binary.LittleEndian.Uint16(c.b))
	}
	c.b = c.b[w:]
	return v % n
}

// runSparseScript plays a capture-sparse script drawn from ch on graphs made
// with policy p: appends of random edges, re-adds of edges removed or retired
// earlier, removes, retires, captures, restores, and removes of edges the
// captured base holds, which without a window are in the base alone. Every
// append's Added and Duplicates must equal the model's counts, and every
// step's version and size must match; snapshots are compared only at the
// capture and restore steps and at the end. It returns how many edges its
// retires removed.
func runSparseScript(t *testing.T, ch choices, sc sparseScript, shards int, p WindowPolicy) (retired int) {
	t.Helper()
	users, merchants := sc.users, sc.merchants
	clock := time.Unix(1_000_000, 0)
	newGraph := func() *Graph {
		g := NewSharded(shards)
		g.SetWindow(p)
		g.now = func() time.Time { return clock }
		return g
	}
	g := newGraph()
	m := &stampModel{live: map[bipartite.Edge]modelStamp{}}
	var lastBatch, gone []bipartite.Edge
	randomEdge := func() bipartite.Edge {
		return bipartite.Edge{U: uint32(ch.Intn(users)), V: uint32(ch.Intn(merchants))}
	}
	// pick draws n edges from es, repeats allowed.
	pick := func(es []bipartite.Edge, n int) []bipartite.Edge {
		var out []bipartite.Edge
		for i := 0; i < n && len(es) > 0; i++ {
			out = append(out, es[ch.Intn(len(es))])
		}
		return out
	}
	where := func(step int, op string) string {
		return fmt.Sprintf("shards=%d window %+v step %d (%s)", shards, p, step, op)
	}
	appendChecked := func(step int, op string, batch []bipartite.Edge) {
		added := 0
		fresh := map[bipartite.Edge]bool{}
		for _, e := range batch {
			if _, live := m.live[e]; !live && !fresh[e] {
				fresh[e] = true
				added++
			}
		}
		res := g.Append(batch)
		m.append(batch, clock.UnixNano())
		if res.Added != added || res.Duplicates != len(batch)-added {
			t.Fatalf("%s: added %d, %d duplicates; model %d, %d",
				where(step, op), res.Added, res.Duplicates, added, len(batch)-added)
		}
		lastBatch = batch
	}
	// removing applies a removal to the stream and the model and keeps what
	// the model lost in gone, for later re-adds.
	removing := func(apply func()) {
		before := maps.Clone(m.live)
		apply()
		var lost []bipartite.Edge
		for e := range before {
			if _, live := m.live[e]; !live {
				lost = append(lost, e)
			}
		}
		// Sorted, not map order: later draws over gone must replay.
		slices.SortFunc(lost, edgeOrder)
		gone = append(gone, lost...)
		if len(gone) > 400 {
			gone = gone[len(gone)-400:]
		}
	}
	capture := func(step int, op string) {
		snap, v := g.Snapshot()
		if v != m.ver || !sameCSR(snap, m.graph(t)) {
			t.Fatalf("%s: snapshot at version %d diverges from the model at %d", where(step, op), v, m.ver)
		}
	}

	for step := 0; step < sc.steps; step++ {
		clock = clock.Add(time.Duration(ch.Intn(4000)) * time.Millisecond)
		var op string
		switch r := ch.Intn(21); {
		case r < 9:
			op = "append"
			batch := make([]bipartite.Edge, 1+ch.Intn(sc.maxBatch))
			for i := range batch {
				batch[i] = randomEdge()
			}
			appendChecked(step, op, batch)
		case r < 11:
			op = "re-add"
			batch := pick(gone, 1+ch.Intn(32))
			batch = append(batch, pick(lastBatch, ch.Intn(8))...)
			batch = append(batch, randomEdge())
			appendChecked(step, op, batch)
		case r < 13:
			op = "remove"
			dead := append(pick(lastBatch, 1+ch.Intn(16)), randomEdge())
			removing(func() {
				g.Remove(dead)
				m.remove(dead)
			})
		case r < 16:
			op = "retire"
			removing(func() {
				retired += g.Retire(clock).Removed
				m.retire(p, clock.UnixNano())
			})
		case r < 19:
			op = "capture"
			capture(step, op)
		case r == 19:
			op = "remove-base"
			capture(step, op)
			var base []bipartite.Edge
			for e, s := range m.live {
				if s.ver <= m.capVer {
					base = append(base, e)
				}
			}
			slices.SortFunc(base, edgeOrder)
			dead := append(pick(base, 1+ch.Intn(16)), randomEdge())
			removing(func() {
				g.Remove(dead)
				m.remove(dead)
			})
		default:
			op = "restore"
			snap, v, mark := g.SnapshotWithMark()
			g = newGraph()
			if err := g.RestoreAt(snap, v, mark, clock.UnixNano()); err != nil {
				t.Fatal(err)
			}
			m.restore(v, clock.UnixNano())
			capture(step, op)
		}
		if v, n := g.Version(), g.Stats().NumEdges; v != m.ver || n != len(m.live) {
			t.Fatalf("%s: version %d with %d edges, model %d with %d", where(step, op), v, n, m.ver, len(m.live))
		}
		if err := checkRuns(g); err != nil {
			t.Fatalf("%s: %v", where(step, op), err)
		}
	}
	capture(sc.steps, "final")
	return retired
}

// FuzzStreamModel plays fuzzer bytes as a capture-sparse script at 1, 2 and
// 8 shards: the first byte picks the row of windowRows, then one step per 8
// bytes up to 200, on a 24×16 id grid where duplicates and re-adds are
// common. The seed corpus is the sparse family's seeds, as 40 steps' worth of
// bytes each, under every row.
func FuzzStreamModel(f *testing.F) {
	const users, merchants = 24, 16
	rows := windowRows(users * merchants)
	for _, sc := range sparseScripts {
		for row := range rows {
			b := make([]byte, 1+8*40)
			rand.New(rand.NewSource(sc.seed)).Read(b[1:])
			b[0] = byte(row)
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p, data := rows[int(data[0])%len(rows)], data[1:]
		sc := sparseScript{steps: min(len(data)/8, 200), maxBatch: 16, users: users, merchants: merchants}
		for _, shards := range []int{1, 2, 8} {
			runSparseScript(t, &byteChoices{b: data}, sc, shards, p)
		}
	})
}

// heapInUse returns the live heap after a double GC.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// residentEdges are the 1<<20 distinct edges the resident-bytes readings
// append: 16 merchants per user, spread over 61 K merchant ids.
func residentEdges() []bipartite.Edge {
	edges := make([]bipartite.Edge, 1<<20)
	for i := range edges {
		edges[i] = bipartite.Edge{U: uint32(i >> 4), V: uint32(i&15) * 4099}
	}
	return edges
}

// residentBytes appends edges to a fresh graph in batches, snapshotting once
// captureAt edges are in (never if negative), with the touched-node history
// off: it is bounded by its node budget, not by the live edge count. It
// returns the graph's resident bytes per live edge — dedup sets, edge log,
// stamps and the snapshot's CSR — and the graph.
func residentBytes(edges []bipartite.Edge, batch, shards, captureAt int, w WindowPolicy) (float64, *Graph) {
	base := heapInUse()
	g := NewSharded(shards)
	g.SetDeltaHistoryLimit(0)
	g.SetWindow(w)
	for off := 0; off < len(edges); off += batch {
		if off == captureAt {
			g.Snapshot()
		}
		g.Append(edges[off : off+batch])
	}
	return float64(heapInUse()-base) / float64(len(edges)), g
}

// TestCapturedStreamHoldsOneCopy pins that an unwindowed stream keeps every
// edge once: the edges a capture absorbed in the captured CSR, and the edges
// appended since as keys of the shard pending sets, with no shard log at
// all. 1<<20 edges captured at 3/4 stay under 11 resident bytes per live
// edge (a log of the post-capture edges held them twice at 15, and a log of
// every edge at 19). A windowed stream ages edges by their log stamps, so
// its twin keeps every live edge in the log.
func TestCapturedStreamHoldsOneCopy(t *testing.T) {
	edges := residentEdges()
	count := func(g *Graph) (logged, rows, pending int) {
		for i := range g.shards {
			sh := &g.shards[i]
			logged += len(sh.entries)
			rows += len(sh.runs)
			pending += sh.pending.Len()
		}
		return logged, rows, pending
	}
	for _, shards := range []int{1, 2} {
		perEdge, g := residentBytes(edges, 128, shards, 3*len(edges)/4, WindowPolicy{})
		if perEdge >= 11 {
			t.Errorf("shards=%d: %.2f resident bytes per live edge after a capture, want < 11", shards, perEdge)
		}
		if logged, rows, pending := count(g); logged != 0 || rows != 0 || pending != len(edges)/4 {
			t.Errorf("shards=%d: %d log entries, %d run rows and %d pending keys, want 0, 0 and the %d appended since the capture",
				shards, logged, rows, pending, len(edges)/4)
		}
		if err := checkRuns(g); err != nil {
			t.Errorf("shards=%d: %v", shards, err)
		}
		t.Logf("shards=%d: %.2f bytes per live edge", shards, perEdge)
	}
	perEdge, g := residentBytes(edges, 128, 2, 3*len(edges)/4, WindowPolicy{MaxEdges: len(edges)})
	if logged, _, pending := count(g); logged != len(edges) || pending != len(edges)/4 {
		t.Errorf("windowed: the logs hold %d edges and the pending sets %d keys, want all %d and %d", logged, pending, len(edges), len(edges)/4)
	}
	if err := checkRuns(g); err != nil {
		t.Errorf("windowed: %v", err)
	}
	t.Logf("windowed, shards=2: %.2f bytes per live edge", perEdge)
}

// BenchmarkStreamResidentBytes reports the graph's resident bytes per live
// edge once 1<<20 fresh edges have gone in, by batch size and shard count
// (see residentBytes). Batch 1 is the stamp table's worst case, one row per
// edge. The captured cases snapshot at 3/4 of the edges and then append the
// rest: the snapshot's CSR counts, and the shard logs and dedup sets hold
// only the last quarter. Run with -benchtime=1x; the numbers are memory
// metrics, not timings.
func BenchmarkStreamResidentBytes(b *testing.B) {
	edges := residentEdges()
	run := func(name string, batch, shards, captureAt int) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perEdge, g := residentBytes(edges, batch, shards, captureAt, WindowPolicy{})
				b.ReportMetric(perEdge, "B/edge")
				runtime.KeepAlive(g)
			}
		})
	}
	for _, batch := range []int{1, 128, 4096} {
		for _, shards := range []int{1, 2} {
			run(fmt.Sprintf("batch=%d/shards=%d", batch, shards), batch, shards, -1)
		}
	}
	for _, shards := range []int{1, 2} {
		run(fmt.Sprintf("captured/batch=128/shards=%d", shards), 128, shards, 3*len(edges)/4)
	}
}

// BenchmarkAppendAfterCapture reports the append cost per edge on a stream
// whose dedup is answered by a large captured CSR: 2 M edges go in and are
// snapshotted, then 0.5 M fresh edges (captured users, new merchants, users
// visited in a scattered order) are appended in 128-edge batches. Each fresh
// edge probes the shard's pending set, which grows from empty, and binary
// searches its user's row in the captured CSR. Only the fresh appends are
// timed.
func BenchmarkAppendAfterCapture(b *testing.B) {
	const captured, fresh, batch = 1 << 21, 1 << 19, 128
	const users = captured >> 4
	old := make([]bipartite.Edge, captured)
	for i := range old {
		old[i] = bipartite.Edge{U: uint32(i >> 4), V: uint32(i&15) * 4099}
	}
	edges := make([]bipartite.Edge, fresh)
	for i := range edges {
		edges[i] = bipartite.Edge{U: uint32(i*40503) & (users - 1), V: 1<<16 + uint32(i/users)}
	}
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := NewSharded(shards)
				for off := 0; off < captured; off += 4096 {
					g.Append(old[off : off+4096])
				}
				g.Snapshot()
				heapInUse()
				b.StartTimer()
				for off := 0; off < fresh; off += batch {
					if st := g.Append(edges[off : off+batch]); st.Added != batch {
						b.Fatalf("fresh batch added %d of %d", st.Added, batch)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*fresh), "ns/edge")
		})
	}
}

// BenchmarkCaptureBuild times the two ways a capture can build its CSR from
// the previous one when the logs below the marks are gone: merge the delta
// into it (ExtendDelta, the stream's one path after its first capture), or
// expand it back to an edge list, apply the delta, and sort the lot from
// scratch (Rebuild). The previous CSR holds 1<<20 edges; churn is the delta's
// size against it, half fresh inserts and half deletes of present edges.
func BenchmarkCaptureBuild(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	old := make([]bipartite.Edge, n)
	for i := range old {
		old[i] = bipartite.Edge{U: uint32(rng.Intn(n >> 4)), V: uint32(rng.Intn(n >> 5))}
	}
	prev, err := bipartite.FromEdges(n>>4, n>>5, old)
	if err != nil {
		b.Fatal(err)
	}
	present := prev.EdgeList()
	cmp := func(a, b bipartite.Edge) int {
		if a.U != b.U {
			return int(a.U) - int(b.U)
		}
		return int(a.V) - int(b.V)
	}
	for _, churn := range []int{25, 50, 100} {
		half := n * churn / 200
		ins := make([]bipartite.Edge, half)
		for i := range ins {
			// Merchant ids past prev's: every insert is fresh.
			ins[i] = bipartite.Edge{U: uint32(rng.Intn(n >> 4)), V: n>>5 + uint32(rng.Intn(n>>5))}
		}
		dels := make([]bipartite.Edge, half)
		for i, j := range rng.Perm(len(present))[:half] {
			dels[i] = present[j]
		}
		b.Run(fmt.Sprintf("churn=%d%%/merge", churn), func(b *testing.B) {
			x := bipartite.NewExtendBuilder()
			for i := 0; i < b.N; i++ {
				x.ExtendDelta(prev, ins, dels, 0, 0)
			}
		})
		b.Run(fmt.Sprintf("churn=%d%%/rebuild", churn), func(b *testing.B) {
			x := bipartite.NewExtendBuilder()
			sorted := make([]bipartite.Edge, len(dels))
			for i := 0; i < b.N; i++ {
				copy(sorted, dels)
				slices.SortFunc(sorted, cmp)
				all := make([]bipartite.Edge, 0, prev.NumEdges()+len(ins))
				d := 0
				prev.Edges(func(e bipartite.Edge) bool {
					for d < len(sorted) && cmp(sorted[d], e) < 0 {
						d++
					}
					if d < len(sorted) && sorted[d] == e {
						return true
					}
					all = append(all, e)
					return true
				})
				x.Rebuild(0, 0, append(all, ins...))
			}
		})
	}
}

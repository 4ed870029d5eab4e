package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls into each layer's public functions, at the seams the serving stack
// already exposes (the HTTP client call, an http.Handler middleware, the
// serve.Snapshotter the engine ingests and snapshots through, and the
// stream.Journal the graph tees into). Nothing inside internal/... knows it is
// being traced; spans inside the program are ROADMAP item 1.

// span is one timed interval. Times are nanoseconds since the recorder's
// base, so a trace file is self-contained and children compare against
// parents on one monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Req    int64  `json:"req"`    // 0 = background work (retire pass, harness call)
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names, one per seam.
const (
	spanClient   = "client"
	spanHandler  = "serve.handler"
	spanAppend   = "stream.append"
	spanSnapshot = "stream.snapshot"
	spanDelta    = "stream.delta"
	spanRetire   = "stream.retire"
	spanJournal  = "persist.append"
	spanTomb     = "persist.retire"
	spanLoad     = "bipartite.read_edgelist"
	spanBuild    = "bipartite.build"
	spanDetect   = "core.detect"
)

// Request kinds, assigned by the client once the response says what happened.
const (
	kindEdges      = "edges"
	kindEdgesDup   = "edges_dup"
	kindDetectMiss = "detect_miss"
	kindDetectHit  = "detect_hit"
	kindOther      = "other"
)

// reqCtx is what a seam needs to attach its span to the request in flight:
// the request id and the span to parent under.
type reqCtx struct {
	req    int64
	parent atomic.Int64
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: every method is a no-op and the wrappers below are never
// installed, so end-to-end numbers carry no tracing cost.
type recorder struct {
	base   time.Time
	nextID atomic.Int64

	// from and to bound the timed phase; the per-layer metrics use only the
	// spans inside it (warm-up and the closing checks are traced too, and
	// stay in the trace file).
	from, to int64

	mu      sync.Mutex
	spans   []span
	kinds   map[int64]string  // request id → kind
	elapsed map[int64]float64 // request id → engine-reported elapsed_ms (detects)

	// inflight routes an Append (and the journal call inside it) to its
	// request by the batch's first edge: the engine's Snapshotter seam takes
	// no context, the handler re-decodes the body into a fresh slice, but the
	// first edge of a batch the client is waiting on is unique among the at
	// most two requests in flight.
	inflight sync.Map // uint64 edge key → *reqCtx

	// detect is the one detect/votes request in flight (serve workloads run
	// one detect client), which Snapshot and Delta attach to. retire is the
	// retire pass in flight, which its tombstone journal call attaches to;
	// passes are serialized by the graph's commit lock.
	detect atomic.Pointer[reqCtx]
	retire atomic.Pointer[reqCtx]
}

func newRecorder() *recorder {
	return &recorder{base: time.Now(), kinds: map[int64]string{}, elapsed: map[int64]float64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin and end mark the timed phase.
func (r *recorder) begin() {
	if r != nil {
		r.from = r.now()
	}
}

func (r *recorder) end() {
	if r != nil {
		r.to = r.now()
	}
}

func (r *recorder) id() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// open starts a span under rc's current parent (a root span when rc is nil);
// done ends and records it.
func (r *recorder) open(name string, rc *reqCtx) span {
	s := span{ID: r.id(), Name: name}
	if rc != nil {
		s.Parent, s.Req = rc.parent.Load(), rc.req
	}
	s.Start = r.now()
	return s
}

func (r *recorder) done(s span) {
	s.End = r.now()
	r.add(s)
}

// batch finds the request waiting on an ingest batch, if any.
func (r *recorder) batch(edges []bipartite.Edge) *reqCtx {
	if len(edges) == 0 {
		return nil
	}
	if v, ok := r.inflight.Load(edgeKey(edges[0])); ok {
		return v.(*reqCtx)
	}
	return nil
}

func (r *recorder) setKind(req int64, kind string, elapsedMS float64) {
	r.mu.Lock()
	r.kinds[req] = kind
	if elapsedMS > 0 {
		r.elapsed[req] = elapsedMS
	}
	r.mu.Unlock()
}

// timed records fn as a root-level span of the harness's own call into a
// layer (batch_cold's load and detect).
func (r *recorder) timed(name string, req int64, fn func() error) error {
	if r == nil {
		return fn()
	}
	s := r.open(name, &reqCtx{req: req})
	err := fn()
	r.done(s)
	return err
}

const traceHeader = "X-Bench-Span"

// middleware opens the handler span. The client reserves the span id and
// sends it with the request id, so the seams below the handler can parent
// under it before the handler has returned.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		req, parent, id, ok := parseTraceHeader(q.Header.Get(traceHeader))
		if !ok {
			next.ServeHTTP(w, q)
			return
		}
		s := span{ID: id, Parent: parent, Req: req, Name: spanHandler, Start: r.now()}
		next.ServeHTTP(w, q)
		r.done(s)
	})
}

// parseTraceHeader reads "request:client span:handler span".
func parseTraceHeader(h string) (req, parent, id int64, ok bool) {
	f := strings.Split(h, ":")
	if len(f) != 3 {
		return 0, 0, 0, false
	}
	var v [3]int64
	for i, x := range f {
		n, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, 0, false
		}
		v[i] = n
	}
	return v[0], v[1], v[2], true
}

func edgeKey(e bipartite.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// tracedGraph is the benchmark-owned serve.Snapshotter (plus the Deltaer,
// Windower and stats extensions the engine discovers by type assertion)
// around the real *stream.Graph.
type tracedGraph struct {
	*stream.Graph
	rec *recorder
}

func (g *tracedGraph) Append(edges []bipartite.Edge) stream.AppendResult {
	rc := g.rec.batch(edges)
	if rc == nil { // set-up preload, or a batch nobody registered
		return g.Graph.Append(edges)
	}
	s := g.rec.open(spanAppend, rc)
	handler := rc.parent.Swap(s.ID) // the journal call inside parents under this span
	res := g.Graph.Append(edges)
	rc.parent.Store(handler)
	g.rec.done(s)
	return res
}

func (g *tracedGraph) Snapshot() (*bipartite.Graph, uint64) {
	rc := g.rec.detect.Load()
	if rc == nil {
		return g.Graph.Snapshot()
	}
	s := g.rec.open(spanSnapshot, rc)
	snap, v := g.Graph.Snapshot()
	g.rec.done(s)
	return snap, v
}

func (g *tracedGraph) Delta(from, to uint64) (stream.Delta, bool) {
	rc := g.rec.detect.Load()
	if rc == nil {
		return g.Graph.Delta(from, to)
	}
	s := g.rec.open(spanDelta, rc)
	d, ok := g.Graph.Delta(from, to)
	g.rec.done(s)
	return d, ok
}

func (g *tracedGraph) Retire(now time.Time) stream.RetireResult {
	s := g.rec.open(spanRetire, nil)
	rc := &reqCtx{}
	rc.parent.Store(s.ID)
	// Passes queue on the commit lock, so a second pass can publish itself
	// while the first is still journaling; analyze() detaches a tombstone
	// whose recorded parent does not enclose it.
	g.rec.retire.Store(rc)
	res := g.Graph.Retire(now)
	g.rec.retire.CompareAndSwap(rc, nil)
	g.rec.done(s)
	return res
}

// tracedJournal is the benchmark-owned stream.Journal around *persist.Store.
type tracedJournal struct {
	store *persist.Store
	rec   *recorder
}

func (j *tracedJournal) AppendEdges(version uint64, edges []bipartite.Edge) error {
	rc := j.rec.batch(edges)
	if rc == nil {
		return j.store.AppendEdges(version, edges)
	}
	s := j.rec.open(spanJournal, rc)
	err := j.store.AppendEdges(version, edges)
	j.rec.done(s)
	return err
}

func (j *tracedJournal) RetireEdges(version uint64, edges []bipartite.Edge, mark stream.WindowMark) error {
	s := j.rec.open(spanTomb, j.rec.retire.Load())
	err := j.store.RetireEdges(version, edges, mark)
	j.rec.done(s)
	return err
}

// analysis is the span set indexed for the per-layer metrics.
type analysis struct {
	from, to int64
	spans    []span
	byID     map[int64]int
	children map[int64][]int
	kinds    map[int64]string
	elapsed  map[int64]float64
}

func (r *recorder) analyze() *analysis {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &analysis{
		from:     r.from,
		to:       r.to,
		spans:    r.spans,
		byID:     make(map[int64]int, len(r.spans)),
		children: make(map[int64][]int),
		kinds:    r.kinds,
		elapsed:  r.elapsed,
	}
	for i, s := range a.spans {
		a.byID[s.ID] = i
	}
	for i, s := range a.spans {
		if s.Parent == 0 {
			continue
		}
		if p, ok := a.byID[s.Parent]; ok && contains(a.spans[p], s) {
			a.children[s.Parent] = append(a.children[s.Parent], i)
		} else {
			// The parent was never recorded (an untraced request) or does not
			// enclose the child (a tombstone that raced a queued retire
			// pass): the span stands alone rather than corrupt a self time.
			a.spans[i].Parent = 0
		}
	}
	return a
}

func contains(parent, child span) bool {
	return parent.Start <= child.Start && child.End <= parent.End
}

// self is the span's duration minus the part its children cover.
func (a *analysis) self(i int) time.Duration {
	s := a.spans[i]
	kids := a.children[s.ID]
	if len(kids) == 0 {
		return s.dur()
	}
	iv := make([][2]int64, len(kids))
	for k, c := range kids {
		iv[k] = [2]int64{a.spans[c].Start, a.spans[c].End}
	}
	sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
	covered, end := int64(0), s.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		covered += v[1] - max(v[0], end)
		end = v[1]
	}
	return s.dur() - time.Duration(covered)
}

// child returns the first child of span i with the given name.
func (a *analysis) child(i int, name string) (int, bool) {
	for _, c := range a.children[a.spans[i].ID] {
		if a.spans[c].Name == name {
			return c, true
		}
	}
	return 0, false
}

// each calls fn for every span of the timed phase with the given name whose
// request kind is one of kinds (any kind when none are given).
func (a *analysis) each(name string, fn func(i int), kinds ...string) {
	for i, s := range a.spans {
		if s.Name != name || s.Start < a.from || s.End > a.to {
			continue
		}
		if len(kinds) == 0 {
			fn(i)
			continue
		}
		for _, k := range kinds {
			if a.kinds[s.Req] == k {
				fn(i)
				break
			}
		}
	}
}

// check verifies the structural invariants the test suite pins: children sit
// inside their parents and no self time is negative.
func (a *analysis) check() error {
	for i, s := range a.spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent != 0 {
			if p, ok := a.byID[s.Parent]; !ok || !contains(a.spans[p], s) {
				return fmt.Errorf("span %d (%s) is not inside its parent %d", s.ID, s.Name, s.Parent)
			}
		}
		if a.self(i) < 0 {
			return fmt.Errorf("span %d (%s) has negative self time", s.ID, s.Name)
		}
	}
	return nil
}

func (a *analysis) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	werr := enc.Encode(struct {
		Header any    `json:"header"`
		Spans  []span `json:"spans"`
	}{header, a.spans})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

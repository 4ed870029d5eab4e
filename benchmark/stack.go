package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/serve"
	"ensemfdet/internal/stream"
)

// stack is the serving stack assembled in this process exactly as
// cmd/ensemfdetd wires it: a sharded stream graph, a durable store recovered
// and installed as its journal, the detect engine with bounded ingest
// admission, and the HTTP handler on a loopback listener. There is no daemon
// process to leak; close() is the whole teardown.
type stack struct {
	dir    string
	graph  *stream.Graph
	store  *persist.Store
	engine *serve.Engine
	srv    *http.Server
	ln     net.Listener
	done   chan error // Serve's return
	url    string
	client *http.Client
	rec    *recorder
	popts  persist.Options
}

// counters is one reading of the counters the layers keep themselves.
type counters struct {
	engine serve.Stats
	build  stream.BuildStats
	window stream.WindowStats
	store  persist.Stats
}

func (s *stack) counters() counters {
	return counters{s.engine.Stats(), s.graph.BuildStats(), s.graph.WindowStats(), s.store.Stats()}
}

const ingestQueue = 256 // cmd/ensemfdetd's -ingest-queue default

// newStack boots the stack over a fresh data dir under parent. rec non-nil
// interposes the tracing wrappers at the Snapshotter, Journal and handler
// seams; nil wires the real objects directly.
func newStack(parent string, window stream.WindowPolicy, snapshotBytes int64, rec *recorder) (*stack, error) {
	dir, err := os.MkdirTemp(parent, "data-")
	if err != nil {
		return nil, err
	}
	if snapshotBytes <= 0 {
		snapshotBytes = 16 << 20 // cmd/ensemfdetd's -snapshot-every default
	}
	s := &stack{dir: dir, rec: rec}
	s.popts = persist.Options{
		Fsync:         persist.FsyncAlways,
		SnapshotBytes: snapshotBytes,
		Logf:          func(string, ...any) {}, // snapshot progress lines would drown the report
	}
	s.graph = stream.NewSharded(0)
	if window.Enabled() {
		s.graph.SetWindow(window)
	}
	if s.store, err = persist.Open(dir, s.popts); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	if _, err = s.store.Recover(s.graph); err != nil {
		_ = s.store.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	var src serve.Snapshotter = s.graph
	if rec != nil {
		s.graph.SetJournal(&tracedJournal{store: s.store, rec: rec})
		src = &tracedGraph{Graph: s.graph, rec: rec}
	} else {
		s.graph.SetJournal(s.store)
	}
	s.store.SetSource(s.graph)
	s.engine = serve.NewEngine(src, serve.Options{IngestQueue: ingestQueue})
	s.engine.AttachPersist(s.store)

	handler := serve.NewHandler(s.engine)
	if rec != nil {
		handler = rec.middleware(handler)
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		_ = s.engine.Close()
		_ = os.RemoveAll(dir)
		return nil, err
	}
	s.url = "http://" + s.ln.Addr().String()
	s.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan error, 1)
	go func() { s.done <- s.srv.Serve(s.ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	return s, nil
}

// close drains the server, joins its goroutine, closes the engine (which
// joins retire kicks and closes the store) and removes the data dir. It
// returns an error if the listener is still accepting afterwards.
func (s *stack) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.engine.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	if c, derr := net.DialTimeout("tcp", s.ln.Addr().String(), time.Second); derr == nil {
		_ = c.Close()
		if err == nil {
			err = fmt.Errorf("listener %s still accepts connections after shutdown", s.ln.Addr())
		}
	}
	return err
}

// call is one closed-loop HTTP exchange: send, wait, read the whole reply.
// It returns the client-side latency. A non-200 status is an error: shed
// (429) and degraded (503) batches are failures of the workload, which is
// sized so none occur.
func (s *stack) call(ctx context.Context, method, path string, body []byte, rc *reqCtx, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, s.url+path, rd)
	if err != nil {
		return 0, err
	}
	var cs span
	if s.rec != nil && rc != nil {
		cs = span{ID: s.rec.id(), Req: rc.req, Name: spanClient}
		hid := s.rec.id()
		rc.parent.Store(hid)
		req.Header.Set(traceHeader, fmt.Sprintf("%d:%d:%d", rc.req, cs.ID, hid))
		cs.Start = s.rec.now()
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; nothing left to report
	lat := time.Since(start)
	if cs.ID != 0 {
		cs.End = s.rec.now()
		s.rec.add(cs)
	}
	if rerr != nil {
		return lat, rerr
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return lat, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return lat, nil
}

// newReq starts a traced request; nil when tracing is off.
func (s *stack) newReq() *reqCtx {
	if s.rec == nil {
		return nil
	}
	return &reqCtx{req: s.rec.id()}
}

type edgesReply struct {
	Added      int    `json:"added"`
	Duplicates int    `json:"duplicates"`
	Version    uint64 `json:"version"`
	NumEdges   int    `json:"num_edges"`
}

// postEdges sends one pre-rendered batch whose first edge is first.
func (s *stack) postEdges(ctx context.Context, body []byte, first bipartite.Edge) (edgesReply, time.Duration, error) {
	var rep edgesReply
	rc := s.newReq()
	if rc != nil {
		s.rec.inflight.Store(edgeKey(first), rc)
		defer s.rec.inflight.Delete(edgeKey(first))
	}
	lat, err := s.call(ctx, http.MethodPost, "/v1/edges", body, rc, &rep)
	if rc != nil && err == nil {
		kind := kindEdges
		if rep.Added == 0 {
			kind = kindEdgesDup
		}
		s.rec.setKind(rc.req, kind, 0)
	}
	return rep, lat, err
}

type detectReply struct {
	GraphVersion  uint64   `json:"graph_version"`
	Cached        bool     `json:"cached"`
	Incremental   bool     `json:"incremental"`
	ReusedSamples int      `json:"reused_samples"`
	RerunSamples  int      `json:"rerun_samples"`
	ElapsedMS     float64  `json:"elapsed_ms"`
	Users         []uint32 `json:"users"`
}

func (s *stack) postDetect(ctx context.Context, body []byte) (detectReply, time.Duration, error) {
	var rep detectReply
	rc := s.newReq()
	if rc != nil {
		s.rec.detect.Store(rc)
		defer s.rec.detect.Store(nil)
	}
	lat, err := s.call(ctx, http.MethodPost, "/v1/detect", body, rc, &rep)
	if rc != nil && err == nil {
		kind := kindDetectMiss
		if rep.Cached {
			kind = kindDetectHit
		}
		s.rec.setKind(rc.req, kind, rep.ElapsedMS)
	}
	return rep, lat, err
}

type votesReply struct {
	GraphVersion uint64            `json:"graph_version"`
	NumSamples   int               `json:"num_samples"`
	Users        []serve.NodeVotes `json:"users"`
	Merchants    []serve.NodeVotes `json:"merchants"`
}

func (s *stack) getVotes(ctx context.Context, query string) (votesReply, error) {
	var rep votesReply
	rc := s.newReq()
	if rc != nil {
		s.rec.detect.Store(rc)
		defer s.rec.detect.Store(nil)
		s.rec.setKind(rc.req, kindOther, 0)
	}
	_, err := s.call(ctx, http.MethodGet, "/v1/votes?"+query, nil, rc, &rep)
	return rep, err
}

func (s *stack) getStats(ctx context.Context) (serve.Stats, error) {
	var st serve.Stats
	_, err := s.call(ctx, http.MethodGet, "/v1/stats", nil, nil, &st)
	return st, err
}

// renderEdges pre-renders a /v1/edges body during set-up so the timed client
// costs a write and a read.
func renderEdges(edges []bipartite.Edge) []byte {
	b := make([]byte, 0, 16+len(edges)*16)
	b = append(b, `{"edges":[`...)
	for i, e := range edges {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "[%d,%d]", e.U, e.V)
	}
	return append(b, "]}"...)
}

// copyDataDir copies the quiesced data dir as a kill -9 would leave it: the
// latest background snapshot plus the WAL tail. The WAL is copied before the
// snapshots and a file that vanishes mid-copy is skipped: if a background
// snapshot lands during the copy, the copy then holds either the old snapshot
// with every segment, or the new snapshot with the segments it does not
// cover; both recover the same graph.
func (s *stack) copyDataDir(parent string) (string, error) {
	dst, err := os.MkdirTemp(parent, "recover-")
	if err != nil {
		return "", err
	}
	for _, sub := range []string{"wal", "snap"} {
		if err := copyDir(filepath.Join(s.dir, sub), filepath.Join(dst, sub)); err != nil {
			_ = os.RemoveAll(dst)
			return "", err
		}
	}
	return dst, nil
}

// recoverFrom times Open+Recover on a copied data dir. Recovery without
// further appends leaves the directory as it found it, so one copy serves
// every round.
func (s *stack) recoverFrom(dir string) (time.Duration, *stream.Graph, persist.RecoveryStats, error) {
	g := stream.NewSharded(0)
	if w := s.graph.Window(); w.Enabled() {
		g.SetWindow(w)
	}
	start := time.Now()
	st, err := persist.Open(dir, s.popts)
	if err != nil {
		return 0, nil, persist.RecoveryStats{}, err
	}
	rs, err := st.Recover(g)
	d := time.Since(start)
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return d, g, rs, err
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

package daemon

import (
	"context"
	"testing"

	"ensemfdet/internal/bipartite"
)

// Running is a Daemon whose Serve runs on a goroutine of the test that
// booted it.
type Running struct {
	*Daemon
	URL    string
	cancel context.CancelFunc
	exited chan struct{}
	err    error // Serve's result, set before exited closes
	ended  bool  // Stop or Crash ran; the cleanup has nothing to check
}

// Run boots cfg and serves it until Stop or Crash; the test's cleanup stops
// it gracefully if neither did.
func Run(t testing.TB, cfg Config) *Running {
	t.Helper()
	d, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Running{Daemon: d, URL: "http://" + d.Addr().String(), cancel: cancel, exited: make(chan struct{})}
	go func() {
		defer close(r.exited)
		r.err = d.Serve(ctx)
	}()
	t.Cleanup(func() {
		if r.ended {
			return
		}
		if err := r.Stop(); err != nil {
			t.Errorf("stopping %s: %v", r.URL, err)
		}
	})
	return r
}

// Stop ends Serve the way SIGTERM does and returns Serve's error.
func (r *Running) Stop() error {
	r.ended = true
	r.cancel()
	<-r.exited
	return r.err
}

// Crash stops the daemon the way SIGKILL stops the process. Closing the
// listener makes Serve stop the retire ticker, the tailer and the failover
// node and return without the drain, the final snapshot or closing the WAL.
// Crash then waits out whatever could still write: a commit in flight (an
// engine retire kick, or a handler the closed connection did not stop) by
// taking the graph's commit lock, with the journal detached so nothing
// commits into the WAL afterwards; and a background snapshot, by taking the
// store's snapshot lock against a source with nothing newer. Under fsync
// always the data dir is then exactly what SIGKILL leaves behind.
func (r *Running) Crash() {
	_ = r.srv.Close() // Serve reports how its listener ended
	<-r.exited
	r.cancel()
	r.ended = r.err == nil // otherwise the cleanup reports Serve's error
	r.graph.SetJournal(nil)
	if r.store != nil {
		r.store.SetSource(nothingNewer{})
		_ = r.store.Snapshot() // a no-op once the lock is free
	}
}

// nothingNewer is a snapshot source the store never has cause to write.
type nothingNewer struct{}

func (nothingNewer) Snapshot() (*bipartite.Graph, uint64) { return nil, 0 }

package daemon_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ensemfdet/internal/daemon"
	"ensemfdet/internal/serve"
)

// The drills boot real daemons on loopback ports inside the test process:
// Run is New + Serve, Stop is SIGTERM and Crash is SIGKILL.

func TestMain(m *testing.M) {
	flag.Parse()
	if !testing.Verbose() {
		log.SetOutput(io.Discard) // the access log writes a line per request
	}
	os.Exit(m.Run())
}

const votes = "/v1/votes?n=8&s=0.5&seed=1"

// durable is a primary over dir with every other flag at its default.
func durable(dir string) daemon.Config {
	cfg := daemon.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.DataDir = dir
	return cfg
}

// follower is a durable follower of primary over dir.
func follower(dir, primary string) daemon.Config {
	cfg := durable(dir)
	cfg.Follow = primary
	return cfg
}

// call sends one request; it is safe off the test goroutine.
func call(method, url, body string) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, resp.Header, err
}

// must requires a 200 and returns the body.
func must(t *testing.T, method, url, body string) []byte {
	t.Helper()
	code, raw, _, err := call(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, code, raw)
	}
	return raw
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	return must(t, http.MethodGet, url, "")
}

func post(t *testing.T, url, body string) []byte {
	t.Helper()
	return must(t, http.MethodPost, url, body)
}

func decode(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
}

func stats(t *testing.T, base string) serve.Stats {
	t.Helper()
	var st serve.Stats
	decode(t, get(t, base+"/v1/stats"), &st)
	return st
}

// requireMetrics fails unless every pattern matches a line of /metrics.
func requireMetrics(t *testing.T, base string, patterns ...string) {
	t.Helper()
	body := get(t, base+"/metrics")
	for _, p := range patterns {
		if !regexp.MustCompile(`(?m)^` + p).Match(body) {
			t.Errorf("%s/metrics has no line matching %q", base, p)
		}
	}
}

// waitFor polls ok for up to 10 s.
func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// converged waits until every daemon reports one graph version.
func converged(t *testing.T, ds ...*daemon.Running) {
	t.Helper()
	waitFor(t, "the graph versions to converge", func() bool {
		v := stats(t, ds[0].URL).Graph.Version
		for _, d := range ds[1:] {
			if stats(t, d.URL).Graph.Version != v {
				return false
			}
		}
		return true
	})
}

// sameVotes requires byte-identical /v1/votes answers from every daemon.
func sameVotes(t *testing.T, query string, ds ...*daemon.Running) {
	t.Helper()
	want := get(t, ds[0].URL+query)
	for _, d := range ds[1:] {
		if got := get(t, d.URL+query); !bytes.Equal(got, want) {
			t.Fatalf("votes differ:\n%s: %s\n%s: %s", ds[0].URL, want, d.URL, got)
		}
	}
}

// batch b is ten edges [b*20+e, b*step+e].
func batch(b, step int) string {
	edges := make([]string, 10)
	for e := range edges {
		edges[e] = fmt.Sprintf("[%d,%d]", b*20+e, b*step+e)
	}
	return `{"edges":[` + strings.Join(edges, ",") + `]}`
}

// churn posts batches from..to with step 7 at base, pausing between them so
// a follower can attach mid-stream.
func churn(base string, from, to int) error {
	for b := from; b <= to; b++ {
		code, raw, _, err := call(http.MethodPost, base+"/v1/edges", batch(b, 7))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("batch %d: status %d: %s", b, code, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// TestDrillKillReboot: votes come back byte-equal across a reboot, whether
// the daemon crashed (the WAL replays) or shut down gracefully (the final
// snapshot covers everything and nothing replays).
func TestDrillKillReboot(t *testing.T) {
	for _, name := range []string{"crash", "graceful"} {
		graceful := name == "graceful"
		t.Run(name, func(t *testing.T) {
			cfg := durable(t.TempDir())
			d := daemon.Run(t, cfg)
			post(t, d.URL+"/v1/edges", `{"edges":[[0,0],[0,1],[1,0],[1,1],[2,0],[2,1],[3,3]]}`)
			post(t, d.URL+"/v1/edges", `{"edges":[[4,0],[4,1],[5,5]]}`)
			before := get(t, d.URL+votes)
			st := stats(t, d.URL)
			if st.Persist == nil || st.Persist.AppendedRecords != 2 || st.Persist.FsyncPolicy != "always" {
				t.Fatalf("persist stats: %+v", st.Persist)
			}
			requireMetrics(t, d.URL, "ensemfdetd_wal_records_total 2", "ensemfdetd_wal_fsyncs_total", "ensemfdetd_persist_snapshot_version")

			snapshot, replayed := uint64(0), 2
			if graceful {
				if err := d.Stop(); err != nil {
					t.Fatal(err)
				}
				snapshot, replayed = st.Graph.Version, 0
			} else {
				d.Crash()
			}

			r := daemon.Run(t, cfg)
			if after := get(t, r.URL+votes); !bytes.Equal(before, after) {
				t.Fatalf("votes diverged across the reboot:\nbefore: %s\nafter:  %s", before, after)
			}
			st2 := stats(t, r.URL)
			rec := st2.Persist.Recovery
			if st2.Graph.Version != st.Graph.Version || rec.SnapshotVersion != snapshot || rec.ReplayedRecords != replayed {
				t.Fatalf("recovered version %d from %+v; want version %d, snapshot %d, %d replayed",
					st2.Graph.Version, rec, st.Graph.Version, snapshot, replayed)
			}
			requireMetrics(t, r.URL, "ensemfdetd_wal_records_total")
		})
	}
}

// TestDrillWindowedKillReboot: a 50 ms retire ticker churns tombstones into
// the WAL while ingest runs; after a crash the reboot reproduces the exact
// votes — no resurrected expired edges.
func TestDrillWindowedKillReboot(t *testing.T) {
	cfg := durable(t.TempDir())
	cfg.WindowVersions, cfg.WindowMaxEdges, cfg.RetireEvery = 4, 40, 50*time.Millisecond
	// quiesce waits until the graph version holds still across a few ticks:
	// votes read before the last tick would race the reboot, which always
	// recovers the post-retire state.
	quiesce := func(base string) {
		last := uint64(1<<64 - 1)
		waitFor(t, "the graph version to quiesce", func() bool {
			time.Sleep(150 * time.Millisecond)
			v := stats(t, base).Graph.Version
			same := v == last
			last = v
			return same
		})
	}

	d := daemon.Run(t, cfg)
	for b := 0; b < 10; b++ {
		post(t, d.URL+"/v1/edges", batch(b, 10))
		time.Sleep(50 * time.Millisecond) // let retire ticks interleave with ingest
	}
	quiesce(d.URL)
	if w := stats(t, d.URL).Window; w == nil || w.RetiredEdges == 0 {
		t.Fatalf("the window retired nothing: %+v", w)
	}
	before := get(t, d.URL+votes)
	d.Crash()

	r := daemon.Run(t, cfg)
	quiesce(r.URL)
	if after := get(t, r.URL+votes); !bytes.Equal(before, after) {
		t.Fatalf("votes diverged across the reboot:\nbefore: %s\nafter:  %s", before, after)
	}
	requireMetrics(t, r.URL, "ensemfdetd_window_retired_edges_total")
}

// TestDrillReplication: a follower attaches mid-churn, refuses writes with
// 403 naming its primary, converges to byte-equal votes, and after a crash
// reboots from its own data dir — no re-download — and converges again.
func TestDrillReplication(t *testing.T) {
	pcfg := durable(t.TempDir())
	pcfg.ServeReplication = true
	p := daemon.Run(t, pcfg)
	churned := make(chan error, 1)
	go func() { churned <- churn(p.URL, 0, 29) }()
	waitFor(t, "churn to start", func() bool { return stats(t, p.URL).Graph.Version >= 5 })

	fcfg := follower(t.TempDir(), p.URL)
	f := daemon.Run(t, fcfg)
	code, raw, _, err := call(http.MethodPost, f.URL+"/v1/edges", `{"edges":[[1,2]]}`)
	if err != nil || code != http.StatusForbidden || !bytes.Contains(raw, []byte(p.URL)) {
		t.Fatalf("follower ingest: %d %s %v; want 403 naming %s", code, raw, err, p.URL)
	}
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	converged(t, p, f)
	get(t, f.URL+"/readyz")
	sameVotes(t, votes, p, f)
	requireMetrics(t, p.URL, "ensemfdetd_repl_tail_requests_total")
	requireMetrics(t, f.URL, "ensemfdetd_repl_versions_behind", "ensemfdetd_build_info")

	shipped := stats(t, p.URL).Repl.FilesShipped
	if shipped == 0 {
		t.Fatal("the follower's bootstrap shipped no file")
	}
	applied := stats(t, f.URL).Graph.Version
	f.Crash()
	if err := churn(p.URL, 30, 39); err != nil {
		t.Fatal(err)
	}
	f2 := daemon.Run(t, fcfg)
	if rec := stats(t, f2.URL).Persist.Recovery; rec.Version < applied {
		t.Fatalf("the rebooted follower recovered version %d, below the %d it had applied", rec.Version, applied)
	}
	if got := stats(t, p.URL).Repl.FilesShipped; got != shipped {
		t.Fatalf("the rebooted follower downloaded again: files shipped %d -> %d", shipped, got)
	}
	converged(t, p, f2)
	sameVotes(t, "/v1/votes?n=8&s=0.5&seed=2", p, f2)
}

// TestDrillFailover: the primary crashes, follower A is promoted over HTTP,
// follower B is re-pointed at A, churn continues on A, and the old primary
// reboots on its own data dir as A's follower; all three end with equal
// votes.
func TestDrillFailover(t *testing.T) {
	pdir := t.TempDir()
	pcfg := durable(pdir)
	pcfg.ServeReplication = true
	p := daemon.Run(t, pcfg)
	churned := make(chan error, 1)
	go func() { churned <- churn(p.URL, 0, 9) }()
	a := daemon.Run(t, follower(t.TempDir(), p.URL))
	b := daemon.Run(t, follower(t.TempDir(), p.URL))
	if err := <-churned; err != nil {
		t.Fatal(err)
	}
	converged(t, p, a, b)

	p.Crash()
	var promoted struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	decode(t, post(t, a.URL+"/v1/admin/promote", ""), &promoted)
	if promoted.Role != "primary" || promoted.Epoch < 1 {
		t.Fatalf("promote answered %+v", promoted)
	}
	get(t, a.URL+"/readyz")
	post(t, b.URL+"/v1/admin/follow", fmt.Sprintf(`{"primary":%q}`, a.URL))
	if err := churn(a.URL, 10, 19); err != nil {
		t.Fatal(err)
	}
	converged(t, a, b)

	old := daemon.Run(t, follower(pdir, a.URL))
	converged(t, old, a, b)
	code, raw, _, err := call(http.MethodPost, old.URL+"/v1/edges", `{"edges":[[1,2]]}`)
	if err != nil || code != http.StatusForbidden || !bytes.Contains(raw, []byte(a.URL)) {
		t.Fatalf("old primary ingest: %d %s %v; want 403 naming %s", code, raw, err, a.URL)
	}
	sameVotes(t, votes, old, a, b)
	requireMetrics(t, a.URL, "ensemfdetd_repl_promotions_total [1-9]", "ensemfdetd_repl_epoch [1-9]")
	requireMetrics(t, b.URL, "ensemfdetd_repl_epoch [1-9]")
}

// TestDrillIncremental: after a one-edge delta a detect runs incrementally,
// and the cold detect of the crashed-and-rebooted daemon at the same graph
// version ranks exactly the same nodes — the delta path reuses votes, it
// never changes them.
func TestDrillIncremental(t *testing.T) {
	type detection struct {
		GraphVersion  uint64   `json:"graph_version"`
		Threshold     int      `json:"threshold"`
		Users         []uint32 `json:"users"`
		Merchants     []uint32 `json:"merchants"`
		Incremental   bool     `json:"incremental"`
		NumSamples    int      `json:"num_samples"`
		ReusedSamples int      `json:"reused_samples"`
		RerunSamples  int      `json:"rerun_samples"`
	}
	const body = `{"t":2,"n":8,"s":0.5,"seed":1,"sampler":"ONS-merchant"}`
	detect := func(base string) (d detection) {
		decode(t, post(t, base+"/v1/detect", body), &d)
		return d
	}
	cfg := durable(t.TempDir())
	d := daemon.Run(t, cfg)
	post(t, d.URL+"/v1/edges", `{"edges":[[0,0],[0,1],[1,0],[1,1],[2,0],[2,1],[3,3]]}`)
	if cold := detect(d.URL); cold.Incremental {
		t.Fatalf("first detect ran incrementally: %+v", cold)
	}
	// One new user on an existing merchant: far under -incremental-max-delta,
	// and resumable under ONS-merchant (the merchant count is unchanged).
	post(t, d.URL+"/v1/edges", `{"edges":[[99,1]]}`)
	inc := detect(d.URL)
	if !inc.Incremental || inc.ReusedSamples+inc.RerunSamples != inc.NumSamples {
		t.Fatalf("delta detect: %+v", inc)
	}
	requireMetrics(t, d.URL, "ensemfdetd_detect_incremental_runs_total [1-9]")
	d.Crash()

	cold := detect(daemon.Run(t, cfg).URL)
	if cold.Incremental {
		t.Fatalf("first detect after the reboot ran incrementally: %+v", cold)
	}
	// Provenance (incremental, cached, elapsed) legitimately differs.
	key := func(d detection) []any { return []any{d.GraphVersion, d.Threshold, d.Users, d.Merchants} }
	if !reflect.DeepEqual(key(inc), key(cold)) {
		t.Fatalf("incremental %v != cold after reboot %v", key(inc), key(cold))
	}
}

// TestDrillAdmission: through a one-slot ingest queue under fsync always,
// eight posting goroutines collide until one is shed with 429 and
// Retry-After, while neither ingest nor the detects running alongside ever
// see a 5xx.
func TestDrillAdmission(t *testing.T) {
	cfg := durable(t.TempDir())
	cfg.IngestQueue = 1
	d := daemon.Run(t, cfg)
	post(t, d.URL+"/v1/edges", batch(0, 7)) // detects need a graph

	var (
		stop      = make(chan struct{})
		shed      = make(chan struct{})
		shedOnce  sync.Once
		seq       atomic.Int64
		errs      = make(chan error, 9) // one per goroutine
		wg        sync.WaitGroup
		retryLess atomic.Int64
	)
	loop := func(step func() error) {
		defer wg.Done()
		for {
			if err := step(); err != nil {
				errs <- err
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go loop(func() error {
			b := int(seq.Add(1))
			edges := make([]string, 64)
			for e := range edges {
				id := b*64 + e
				edges[e] = fmt.Sprintf("[%d,%d]", id%200000, id*7%1000)
			}
			code, raw, hdr, err := call(http.MethodPost, d.URL+"/v1/edges", `{"edges":[`+strings.Join(edges, ",")+`]}`)
			switch {
			case err != nil:
				return err
			case code == http.StatusTooManyRequests:
				if hdr.Get("Retry-After") == "" {
					retryLess.Add(1)
				}
				shedOnce.Do(func() { close(shed) })
			case code != http.StatusOK:
				return fmt.Errorf("ingest: status %d: %s", code, raw)
			}
			return nil
		})
	}
	wg.Add(1)
	go loop(func() error {
		code, raw, _, err := call(http.MethodPost, d.URL+"/v1/detect", `{"n":8,"s":0.3,"seed":1}`)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("detect: status %d: %s", code, raw)
		}
		return err
	})

	select {
	case <-shed:
	case <-time.After(15 * time.Second):
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-shed:
	default:
		t.Fatal("no batch was shed through a one-slot queue in 15 s")
	}
	if n := retryLess.Load(); n > 0 {
		t.Errorf("%d 429 answers carried no Retry-After", n)
	}
	requireMetrics(t, d.URL, "ensemfdetd_ingest_shed_total [1-9]")
}

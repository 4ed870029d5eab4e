package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, raw)
	}
	return raw
}

// TestWindowStatsAndMetricsOverHTTP boots the full handler over a windowed
// graph and checks the window section of /v1/stats and the
// ensemfdetd_window_* metrics appear once a policy is active and a pass has
// retired something.
func TestWindowStatsAndMetricsOverHTTP(t *testing.T) {
	g := stream.NewSharded(4)
	g.SetWindow(stream.WindowPolicy{MaxVersions: 1})
	e := NewEngine(g, Options{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	if code := postJSON(t, srv.URL+"/v1/edges", map[string]any{"edges": [][2]uint32{{0, 0}, {1, 1}}}, nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/edges", map[string]any{"edges": [][2]uint32{{2, 2}}}, nil); code != 200 {
		t.Fatalf("ingest: %d", code)
	}
	res, ok := e.RetireNow()
	if !ok || res.Removed != 2 {
		t.Fatalf("RetireNow: ok=%v %+v, want the first batch retired", ok, res)
	}

	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Window == nil {
		t.Fatal("stats missing window section with a policy active")
	}
	if st.Window.Policy.MaxVersions != 1 || st.Window.RetiredEdges != 2 ||
		st.Window.RetirePasses != 1 || st.Window.Mark.Version != 1 {
		t.Fatalf("window stats: %+v", st.Window)
	}
	if st.Window.LiveEdges != st.Graph.NumEdges {
		t.Fatalf("window live edges %d != graph edges %d", st.Window.LiveEdges, st.Graph.NumEdges)
	}

	metrics := string(getRaw(t, srv.URL+"/metrics"))
	for _, want := range []string{
		"ensemfdetd_window_retired_edges_total 2",
		"ensemfdetd_window_retire_passes_total 1",
		"ensemfdetd_window_retire_seconds_total",
		"ensemfdetd_window_live_edges 1",
		"ensemfdetd_window_watermark_version 1",
		"ensemfdetd_window_journal_errors_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStatsOmitWindowWithoutPolicy: an unbounded daemon keeps the old stats
// shape — no window section, no window metrics.
func TestStatsOmitWindowWithoutPolicy(t *testing.T) {
	g := stream.New()
	e := NewEngine(g, Options{})
	srv := httptest.NewServer(NewHandler(e))
	t.Cleanup(srv.Close)

	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Window != nil {
		t.Fatalf("window section present without a policy: %+v", st.Window)
	}
	if _, ok := e.RetireNow(); ok {
		t.Fatal("RetireNow reported ok without a policy")
	}
	metrics := string(getRaw(t, srv.URL+"/metrics"))
	if strings.Contains(metrics, "ensemfdetd_window_") {
		t.Fatal("window metrics exported without a policy")
	}
}

// TestIngestKicksRetireOnCountBound pins the MaxEdges backstop: a batch that
// pushes the live count past the cap triggers a background retire without
// waiting for any ticker.
func TestIngestKicksRetireOnCountBound(t *testing.T) {
	g := stream.NewSharded(4)
	g.SetWindow(stream.WindowPolicy{MaxEdges: 10})
	e := NewEngine(g, Options{})
	t.Cleanup(func() { e.Close() })

	batch := func(base, n int) []bipartite.Edge {
		out := make([]bipartite.Edge, n)
		for i := range out {
			out[i] = bipartite.Edge{U: uint32(base + i), V: uint32(base + i)}
		}
		return out
	}
	// Three 5-edge versions then a 10-edge one: 25 live > 10. Whole-version
	// retirement drops the three oldest versions, leaving exactly the last.
	e.Ingest(batch(0, 5))
	e.Ingest(batch(100, 5))
	e.Ingest(batch(200, 5))
	e.Ingest(batch(300, 10))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := g.Stats().NumEdges; n == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background retire never enforced the cap: %d live edges", g.Stats().NumEdges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap, _ := g.Snapshot()
	if !snap.HasEdge(300, 300) || snap.HasEdge(0, 0) {
		t.Fatal("count retire kept the wrong versions")
	}
	if e.retireKicks.Load() == 0 {
		t.Fatal("ingest never kicked a retire")
	}
}

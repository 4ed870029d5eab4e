package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables pins BENCHMARK.json to the metric and workload
// tables the binary emits from.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the repetitions are calibrated for %d", c.RunSeconds, referenceSeconds)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the binary", i, w.Name, workloadNames[i])
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	compare := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, the binary emits %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the binary %s [%s]", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s metric %q: bad or repeated name", kind, m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s metric %q: bound presence is wrong", kind, m.Name)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %g out of (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd, true)
	compare("per_layer", c.PerLayer, perLayer, false)
}

// runTiny drives the whole command in-process at the tiny scale.
func runTiny(t *testing.T, workload string, trace string, out string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "11", "--seconds", strconv.Itoa(referenceSeconds), "--trace", trace, "--scale", "tiny", "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(raw) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", raw)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	if !strings.HasPrefix(lines[len(lines)-2], "hygiene: ") {
		t.Errorf("the line before the result is %q, want the hygiene line", lines[len(lines)-2])
	}
	return res, stdout.String()
}

func checkMetrics(t *testing.T, label string, got map[string]metricValue, want []metricDef, nonZero bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", label, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
			t.Errorf("%s: metric %s = %v", label, d.Name, v.Value)
		case nonZero && v.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", label, d.Name)
		}
	}
}

// TestAllWorkloadsTiny runs every workload measured and traced, and checks
// the output contract, the correctness checks, the trace structure, the
// layer contrasts the workloads exist for, and that nothing is left behind.
func TestAllWorkloadsTiny(t *testing.T) {
	out := t.TempDir()
	for _, w := range allWorkloadNames {
		t.Run(w, func(t *testing.T) {
			res, report := runTiny(t, w, "0", out)
			checkMetrics(t, w+" measured", res.Metrics, endToEnd, true)
			if n := strings.Count(report, "series repetition "); n != 3*scales["tiny"].Reps {
				t.Errorf("measured report prints %d per-repetition series, want 3 for each of %d repetitions", n, scales["tiny"].Reps)
			}

			res, report = runTiny(t, w, "1", out)
			checkMetrics(t, w+" traced", res.Metrics, perLayer, false)
			for _, d := range perLayer {
				if n := strings.Count(report, "  "+d.Name+" "); n != 1 {
					t.Errorf("report names %s %d times, want once", d.Name, n)
				}
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+w+".json"))

			m := res.Metrics
			on := func(name string) bool { return m[name].Value > 0 }
			switch w {
			case "batch_cold":
				if on("persist.append.p50_us") || on("serve.edges.handler_p50_ms") || on("stream.append.self_p50_us") {
					t.Error("batch_cold reports work in serve, stream or persist")
				}
				if m["fdet.share_of_sample_work"].Value < 0.5 {
					t.Errorf("fdet share of sample work %.2f, want the majority", m["fdet.share_of_sample_work"].Value)
				}
				if !on("bipartite.read_edgelist_ms") || !on("core.run.p50_ms") {
					t.Error("batch_cold is missing its bipartite or core numbers")
				}
			case "serve_ingest":
				if !on("persist.append.p50_us") || !on("serve.edges.handler_p50_ms") || !on("stream.append.self_p50_us") {
					t.Error("serve_ingest is missing serve, stream or persist numbers")
				}
				if on("fdet.detect.us_per_sample") || on("core.run.p50_ms") {
					t.Error("serve_ingest reports detection work")
				}
				if m["persist.fsyncs_per_record"].Value != 1 || !on("stream.append.dup_ratio") {
					t.Errorf("fsyncs per record %v, dup ratio %v", m["persist.fsyncs_per_record"].Value, m["stream.append.dup_ratio"].Value)
				}
			case "serve_incremental":
				if m["serve.detect.reused_ratio"].Value < 0.5 || m["serve.detect.incremental_ratio"].Value < 0.9 {
					t.Errorf("reused ratio %.2f, incremental ratio %.2f", m["serve.detect.reused_ratio"].Value, m["serve.detect.incremental_ratio"].Value)
				}
				if m["serve.cache.hit_ratio"].Value != 0.5 || !on("stream.delta.span_p50_us") || !on("core.incremental.run_p50_ms") {
					t.Errorf("cache hit ratio %v, want every second detect cached", m["serve.cache.hit_ratio"].Value)
				}
			case "serve_window":
				if !on("stream.retire.passes") || !on("stream.retire.edges") {
					t.Error("serve_window retired nothing")
				}
				if m["serve.detect.reused_ratio"].Value > 0.2 {
					t.Errorf("reused ratio %.2f under window churn, expected near 0", m["serve.detect.reused_ratio"].Value)
				}
			}
		})
	}
	ents, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "trace-") {
			t.Errorf("%s was left behind in the output directory", e.Name())
		}
	}
}

// checkTraceFile re-derives the span invariants from the file alone: every
// child lies inside its parent, and no span's children cover more than it.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Header runHeader `json:"header"`
		Spans  []span    `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 || f.Header.Seed != 11 || !f.Header.Traced {
		t.Fatalf("%s: %d spans, header %+v", path, len(f.Spans), f.Header)
	}
	byID := map[int64]span{}
	for _, s := range f.Spans {
		if _, dup := byID[s.ID]; dup || s.ID == 0 {
			t.Fatalf("span id %d repeats or is zero", s.ID)
		}
		byID[s.ID] = s
	}
	a := &analysis{spans: f.Spans, byID: map[int64]int{}, children: map[int64][]int{}}
	for i, s := range f.Spans {
		a.byID[s.ID] = i
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || p.Start > s.Start || s.End > p.End {
				t.Errorf("span %d (%s) is not inside its parent %d", s.ID, s.Name, s.Parent)
			}
			if s.Req != p.Req {
				t.Errorf("span %d (%s) has request %d, its parent %d", s.ID, s.Name, s.Req, p.Req)
			}
			a.children[s.Parent] = append(a.children[s.Parent], i)
		}
	}
	for i, s := range f.Spans {
		if self := a.self(i); self < 0 || self > s.dur() {
			t.Errorf("span %d (%s): self time %v of %v", s.ID, s.Name, self, s.dur())
		}
	}
}

// TestAbortLeavesNothing: a deadline (the same path SIGINT and SIGTERM take)
// fails the command and still removes the scratch directory and the listener.
func TestAbortLeavesNothing(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "serve_incremental", "--scale", "tiny", "--deadline", "30ms", "--out", out}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("a 30ms deadline did not fail the run:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("an aborted run printed a result:\n%s", stdout.String())
	}
	if ents, _ := os.ReadDir(out); len(ents) != 0 {
		t.Errorf("%d entries left in the output directory after an abort", len(ents))
	}
}

func TestRenderRefusesGaps(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "ms"}}
	if _, err := render(defs, metrics{"a": 1}, false); err == nil {
		t.Error("a missing metric was rendered")
	}
	if _, err := render(defs, metrics{"a": 1, "b": 0}, false); err == nil {
		t.Error("a zero end-to-end metric was rendered")
	}
	if _, err := render(defs, metrics{"a": 1, "b": math.NaN()}, true); err == nil {
		t.Error("a NaN metric was rendered")
	}
	if _, err := render(defs, metrics{"a": 1, "b": 2, "c": 3}, true); err == nil {
		t.Error("an undeclared metric was rendered")
	}
	if got, err := render(defs, metrics{"a": 1, "b": 0}, true); err != nil || len(got) != 2 {
		t.Errorf("render = %v, %v", got, err)
	}
}

// TestWrongAnswerFails: the checks compare against the benchmark's own model,
// so a model that disagrees with the system must fail the run, not pass it.
func TestWrongAnswerFails(t *testing.T) {
	a := ranked([]int{0, 3, 1, 3})
	b := ranked([]int{0, 3, 2, 3})
	if sameRanking(a, b) || !sameRanking(a, ranked([]int{0, 3, 1, 3})) {
		t.Error("sameRanking does not tell different vote vectors apart")
	}
	if a[0].ID != 1 || a[1].ID != 3 || a[2].ID != 2 {
		t.Errorf("ranked order %v, want votes descending then id ascending", a)
	}
	e := &env{}
	e.check(false, "planted mismatch")
	e.op(os.ErrNotExist)
	if e.failed != 2 || e.attempted != 2 {
		t.Errorf("failed=%d attempted=%d after two failures", e.failed, e.attempted)
	}
}

func TestSamplesStatistics(t *testing.T) {
	s := samples{4 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	if got := s.median(); got != 2500*time.Millisecond {
		t.Errorf("median %v", got)
	}
	if got := s.quantile(0.9); got != 4*time.Second {
		t.Errorf("p90 %v", got)
	}
	if (samples{}).median() != 0 || (samples{}).quantile(0.5) != 0 || (samples{}).least() != 0 || s.least() != time.Second {
		t.Error("empty series is not 0, or least is not the smallest")
	}
}

// TestTimingReadsQuietestRepetition: a stretch that is slow in one repetition
// costs nothing when another repetition passed the same blocks undisturbed,
// and repetitions of different shapes are refused.
func TestTimingReadsQuietestRepetition(t *testing.T) {
	ms := func(v ...int) samples {
		var s samples
		for _, x := range v {
			s = append(s, time.Duration(x)*time.Millisecond)
		}
		return s
	}
	quiet := blocks{wall: ms(100, 200, 300), primary: ms(10, 20, 30), secondary: ms(1, 2, 3), edges: 600}
	early := blocks{wall: ms(900, 800, 300), primary: ms(90, 80, 30), secondary: ms(9, 8, 3), edges: 600}
	late := blocks{wall: ms(100, 200, 700), primary: ms(10, 20, 70), secondary: ms(1, 2, 7), edges: 600}
	e := &env{e2e: metrics{}}
	if err := e.timing([]blocks{early, late}); err != nil {
		t.Fatal(err)
	}
	want := metrics{}
	e2 := &env{e2e: want}
	if err := e2.timing([]blocks{quiet, quiet}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"wall_s", "primary_p50_ms", "secondary_p50_ms", "edges_per_s"} {
		if e.e2e[name] != want[name] || want[name] == 0 {
			t.Errorf("%s = %v with each half disturbed once, %v undisturbed", name, e.e2e[name], want[name])
		}
	}
	if want["wall_s"] != 0.6 || want["primary_p50_ms"] != 20 || want["edges_per_s"] != 1000 {
		t.Errorf("undisturbed metrics %v", want)
	}
	short := blocks{wall: ms(100, 200), primary: ms(10, 20), secondary: ms(1, 2), edges: 600}
	if err := (&env{e2e: metrics{}}).timing([]blocks{quiet, short}); err == nil {
		t.Error("repetitions with different block counts were accepted")
	}
}

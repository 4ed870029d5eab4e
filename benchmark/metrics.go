package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's contract with BENCHMARK.json: a measured run (-trace 0) emits
// exactly endToEnd, a traced run (-trace 1) exactly perLayer, on every
// workload. bench_test.go pins both against BENCHMARK.json.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees. Every metric is defined on
// every workload (the contract emits all of them on each run), so the two
// latency metrics are named by role; README.md tables what the primary and
// secondary operation are per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"primary_p50_ms", "ms"},
	{"secondary_p50_ms", "ms"},
	{"edges_per_s", "1/s"},
	{"recover_s", "s"},
	{"heap_live_mb", "MB"},
}

// perLayer comes from the traced run. A layer the workload does not exercise
// reports 0 for its metrics: the contract wants every name on every run, and
// "absent" has to be a number.
var perLayer = []metricDef{
	// serve: HTTP transport, JSON, admission, vote cache.
	{"serve.edges.handler_p50_ms", "ms"},
	{"serve.edges.self_p50_ms", "ms"},
	{"serve.transport.self_p50_ms", "ms"},
	{"serve.edges.p99_ms", "ms"},
	{"serve.edges.shed", "count"},
	{"serve.detect.handler_p50_ms", "ms"},
	{"serve.detect.self_p50_ms", "ms"},
	{"serve.detect.cached_p50_ms", "ms"},
	{"serve.detect.p90_ms", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.detect.incremental_ratio", "ratio"},
	{"serve.detect.reused_ratio", "ratio"},
	// stream: sharded log, dedup, snapshots, window.
	{"stream.append.self_p50_us", "us"},
	{"stream.append.dup_ratio", "ratio"},
	{"stream.snapshot.span_p50_ms", "ms"},
	{"stream.snapshot.delta_builds", "count"},
	{"stream.snapshot.full_builds", "count"},
	{"stream.snapshot.delta_mean_ms", "ms"},
	{"stream.snapshot.full_mean_ms", "ms"},
	{"stream.delta.span_p50_us", "us"},
	{"stream.retire.passes", "count"},
	{"stream.retire.edges", "count"},
	{"stream.retire.mean_ms", "ms"},
	// persist: WAL, fsync, snapshots, recovery.
	{"persist.append.p50_us", "us"},
	{"persist.append.p99_us", "us"},
	{"persist.fsyncs_per_record", "ratio"},
	{"persist.wal_bytes_per_edge", "B"},
	{"persist.snapshots_written", "count"},
	{"persist.snapshot.total_ms", "ms"},
	{"persist.recover.replayed_records", "count"},
	{"persist.recover.snapshot_edges", "count"},
	// core: ensemble run, incremental classify, vote merge.
	{"core.run.p50_ms", "ms"},
	{"core.run.work_ms", "ms"},
	{"core.run.parallel_efficiency", "ratio"},
	{"core.run.peel_rounds", "count"},
	{"core.incremental.run_p50_ms", "ms"},
	{"core.f1_max", "ratio"},
	// sampling, bipartite, fdet: the single-threaded ensemble replay.
	{"sampling.sample_into.us_per_sample", "us"},
	{"sampling.draw.us_per_sample", "us"},
	{"bipartite.induce.us_per_sample", "us"},
	{"bipartite.subgraph.edges_mean", "count"},
	{"bipartite.read_edgelist_ms", "ms"},
	{"bipartite.build_ms", "ms"},
	{"fdet.detect.us_per_sample", "us"},
	{"fdet.rounds_per_sample", "count"},
	{"fdet.ns_per_edge_round", "ns"},
	{"fdet.share_of_sample_work", "ratio"},
	// trace: what the traced run itself cost and covered.
	{"trace.wall_s", "s"},
	{"trace.attributed_share", "ratio"},
	{"trace.spans", "count"},
}

// metrics is one run's named values.
type metrics map[string]float64

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render selects defs from m, refusing a missing, extra or non-finite value:
// a metric the harness forgot to measure must fail the command, not print 0.
func render(defs []metricDef, m metrics, allowZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		case v == 0 && !allowZero:
			return nil, fmt.Errorf("metric %s is 0", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

func (r result) lastLine() string {
	b, err := json.Marshal(r)
	if err != nil { // only non-finite floats can fail, and render refused those
		panic(err)
	}
	return string(b)
}

// samples is a latency series.
type samples []time.Duration

// quantile returns the q-quantile by the nearest-rank rule on a sorted copy;
// 0 for an empty series.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

// median interpolates between the two middle values of an even-sized series,
// so a median of three or four set-ups or recoveries is not a single draw.
func (s samples) median() time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// least returns the smallest value; 0 for an empty series.
func (s samples) least() time.Duration {
	if len(s) == 0 {
		return 0
	}
	return slices.Min(s)
}

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import "time"

// serveLayers fills the serve, stream and persist metrics of a traced serve
// workload from its spans and from the counters the layers already keep
// (Engine.Stats, Graph.BuildStats, Graph.WindowStats, Store.Stats), and notes
// how the timed phase divides between the layers.
func serveLayers(e *env, from, to counters, a *analysis, clients int) {
	m := e.layer
	span := func(i int) time.Duration { return a.spans[i].dur() }

	// Per-layer busy time inside foreground requests: every nanosecond of a
	// client span belongs to the self time of exactly one span under it.
	var busyServe, busyStream, busyPersist, busyCore, foreground time.Duration

	// /v1/edges: client → handler → stream.append → persist.append.
	var edgeClient, edgeHandler, edgeSelf, transport, appendSelf, journal samples
	a.each(spanClient, func(i int) {
		edgeClient = append(edgeClient, span(i))
	}, kindEdges, kindEdgesDup)
	a.each(spanClient, func(i int) {
		foreground += span(i)
		busyServe += a.self(i)
		if _, ok := a.child(i, spanHandler); ok {
			transport = append(transport, a.self(i))
		}
	})
	a.each(spanHandler, func(i int) {
		edgeHandler = append(edgeHandler, span(i))
		edgeSelf = append(edgeSelf, a.self(i))
		busyServe += a.self(i)
	}, kindEdges, kindEdgesDup)
	a.each(spanAppend, func(i int) {
		appendSelf = append(appendSelf, a.self(i))
		busyStream += a.self(i)
	})
	a.each(spanJournal, func(i int) {
		journal = append(journal, span(i))
		busyPersist += span(i)
	})
	m["serve.edges.handler_p50_ms"] = ms(edgeHandler.median())
	m["serve.edges.self_p50_ms"] = ms(edgeSelf.median())
	m["serve.transport.self_p50_ms"] = ms(transport.median())
	m["serve.edges.p99_ms"] = ms(edgeClient.quantile(0.99))
	m["stream.append.self_p50_us"] = us(appendSelf.median())
	m["persist.append.p50_us"] = us(journal.median())
	m["persist.append.p99_us"] = us(journal.quantile(0.99))

	// /v1/detect: client → handler → stream.snapshot, stream.delta; what is
	// left of the engine's own elapsed_ms after those two is the ensemble run.
	var missClient, missHandler, missSelf, hitHandler, snaps, deltas, incRun samples
	a.each(spanClient, func(i int) { missClient = append(missClient, span(i)) }, kindDetectMiss)
	a.each(spanHandler, func(i int) {
		var below time.Duration
		if c, ok := a.child(i, spanSnapshot); ok {
			snaps = append(snaps, span(c))
			below += span(c)
		}
		if c, ok := a.child(i, spanDelta); ok {
			deltas = append(deltas, span(c))
			below += span(c)
		}
		busyStream += below
		elapsed := time.Duration(a.elapsed[a.spans[i].Req] * float64(time.Millisecond))
		run := max(0, elapsed-below)
		incRun = append(incRun, run)
		busyCore += run
		missHandler = append(missHandler, span(i))
		missSelf = append(missSelf, max(0, span(i)-elapsed))
		busyServe += max(0, a.self(i)-run)
	}, kindDetectMiss)
	a.each(spanHandler, func(i int) {
		hitHandler = append(hitHandler, span(i))
		busyServe += span(i)
	}, kindDetectHit, kindOther)
	m["serve.detect.handler_p50_ms"] = ms(missHandler.median())
	m["serve.detect.self_p50_ms"] = ms(missSelf.median())
	m["serve.detect.cached_p50_ms"] = ms(hitHandler.median())
	m["serve.detect.p90_ms"] = ms(missClient.quantile(0.9))
	m["stream.snapshot.span_p50_ms"] = ms(snaps.median())
	m["stream.delta.span_p50_us"] = us(deltas.median())
	m["core.incremental.run_p50_ms"] = ms(incRun.median())

	// Counters the layers keep themselves, as the change over the timed
	// phase: the preload and the warm-up detect are not in them.
	d := func(at func(counters) uint64) float64 { return float64(at(to) - at(from)) }
	hits := d(func(c counters) uint64 { return c.engine.CacheHits })
	misses := d(func(c counters) uint64 { return c.engine.CacheMisses })
	incRuns := d(func(c counters) uint64 { return c.engine.Detect.IncrementalRuns })
	coldRuns := d(func(c counters) uint64 { return c.engine.Detect.ColdRuns })
	reused := d(func(c counters) uint64 { return c.engine.Detect.SamplesReused })
	rerun := d(func(c counters) uint64 { return c.engine.Detect.SamplesRerun })
	added := d(func(c counters) uint64 { return c.engine.IngestStats.Added })
	dups := d(func(c counters) uint64 { return c.engine.IngestStats.Duplicates })
	m["serve.edges.shed"] = d(func(c counters) uint64 { return c.engine.IngestStats.Shed })
	m["serve.cache.hit_ratio"] = ratio(hits, hits+misses)
	m["serve.detect.incremental_ratio"] = ratio(incRuns, incRuns+coldRuns)
	m["serve.detect.reused_ratio"] = ratio(reused, reused+rerun)
	m["stream.append.dup_ratio"] = ratio(dups, added+dups)

	deltaBuilds := d(func(c counters) uint64 { return c.build.DeltaBuilds })
	fullBuilds := d(func(c counters) uint64 { return c.build.FullBuilds })
	m["stream.snapshot.delta_builds"] = deltaBuilds
	m["stream.snapshot.full_builds"] = fullBuilds
	m["stream.snapshot.delta_mean_ms"] = ratio(ms(to.build.DeltaBuildDur-from.build.DeltaBuildDur), deltaBuilds)
	m["stream.snapshot.full_mean_ms"] = ratio(ms(to.build.FullBuildDur-from.build.FullBuildDur), fullBuilds)

	passes := d(func(c counters) uint64 { return c.window.RetirePasses })
	retired := d(func(c counters) uint64 { return c.window.RetiredEdges })
	m["stream.retire.passes"] = passes
	m["stream.retire.edges"] = retired
	m["stream.retire.mean_ms"] = ratio(ms(to.window.RetireDur-from.window.RetireDur), passes)

	// Edge records carry the edges added, tombstone records the edges retired.
	m["persist.fsyncs_per_record"] = ratio(d(func(c counters) uint64 { return c.store.Fsyncs }), d(func(c counters) uint64 { return c.store.AppendedRecords }))
	m["persist.wal_bytes_per_edge"] = ratio(d(func(c counters) uint64 { return c.store.AppendedBytes }), added+retired)
	m["persist.snapshots_written"] = d(func(c counters) uint64 { return c.store.SnapshotsWritten })
	m["persist.snapshot.total_ms"] = ms(to.store.SnapshotDur - from.store.SnapshotDur)

	// Background retire passes run beside the client, not inside its spans;
	// they are reported, not added to the foreground budget.
	var retire time.Duration
	a.each(spanRetire, func(i int) { retire += span(i) })

	budget := time.Duration(e.e2e["wall_s"]*float64(time.Second)) * time.Duration(clients)
	m["trace.attributed_share"] = ratio(float64(foreground), float64(budget))
	share := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(budget)) }
	e.notef("layer busy, %% of wall x %d client(s) = %.3fs: serve %.1f%%, stream %.1f%%, persist %.1f%%, core and below %.1f%%, unattributed (client idle between requests) %.1f%%; background retire passes %.3fs",
		clients, budget.Seconds(), share(busyServe), share(busyStream), share(busyPersist), share(busyCore),
		100-share(foreground), retire.Seconds())
	if d := foreground - busyServe - busyStream - busyPersist - busyCore; d < -time.Millisecond || d > time.Millisecond {
		e.notef("note: layer busy times sum to %v, foreground spans to %v", foreground-d, foreground)
	}
}

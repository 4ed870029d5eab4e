// Command benchmark is the repository's one performance instrument:
// fixed-work, closed-loop workloads run in this process against the library
// and against the serving stack assembled exactly as cmd/ensemfdetd wires it.
// A measured run prints the end-to-end metrics; a separate traced run prints
// the per-layer metrics. See README.md beside this file.
//
// Usage (through run.sh, which builds and execs the binary):
//
//	benchmark/run.sh --workload batch_cold|serve_ingest|serve_incremental|serve_window
//	                 [--seed 7] [--seconds 30] [--trace 0|1] [--scale full|tiny]
//	                 [--out benchmark/out] [--deadline 170s]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is 0 only if every operation succeeded and
// every correctness check held.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    string
	out      string
	deadline time.Duration
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "one of "+strings.Join(allWorkloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 7, "seed of the input generator; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", referenceSeconds, "measuring time the number of repetitions is scaled to")
	fs.IntVar(&trace, "trace", 0, "0 = measured run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	fs.StringVar(&o.scale, "scale", "full", "full (the reference sizes) or tiny (seconds in total, for tests)")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for scratch data and trace files")
	fs.DurationVar(&o.deadline, "deadline", 170*time.Second, "abort with a non-zero exit after this long")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(allWorkloadNames, ", "))
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// run is main without the exit, so the tests drive the whole command.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	// Everything the run starts is stopped on every exit path: the workload's
	// teardown and the scratch directory's removal are deferred below, and
	// SIGINT, SIGTERM and the deadline all arrive as this context's
	// cancellation, which every loop and HTTP call observes.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	// The last resort if a teardown itself hangs past the deadline.
	watchdog := time.AfterFunc(o.deadline+8*time.Second, func() {
		fmt.Fprintln(os.Stderr, "benchmark: teardown did not finish after the deadline; exiting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	baseline := runtime.NumGoroutine()
	res, err := execute(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	leak := waitGoroutines(baseline)
	fmt.Fprintf(stdout, "hygiene: listeners closed, scratch removed, goroutines %d at start, %d at end\n", baseline, baseline+leak)
	if leak > 0 {
		buf := make([]byte, 1<<16)
		fmt.Fprintf(stderr, "benchmark: %d goroutines outlived the run:\n%s\n", leak, buf[:runtime.Stack(buf, true)])
		res.Correct = false
	}
	fmt.Fprintln(stdout, res.lastLine())
	if !res.Correct {
		return 1
	}
	return 0
}

// waitGoroutines gives exiting goroutines (closed connections' readers, the
// server's accept loop) a moment to finish and returns how many remain above
// the start-up count.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-baseline)
}

// execute runs one workload and prints the human-readable report. Its
// deferred teardowns run before run() counts goroutines.
func execute(ctx context.Context, o options, stdout io.Writer) (res result, err error) {
	sz, err := sizesFor(o.scale, o.seconds)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return res, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()

	e := &env{ctx: ctx, sz: sz, seed: o.seed, dir: dir, e2e: metrics{}, layer: metrics{}}
	if o.trace {
		e.rec = newRecorder()
		for _, d := range perLayer {
			e.layer[d.Name] = 0
		}
	}

	// A measured run repeats set-up and script on a fresh instance, up to
	// Reps times; a traced run makes one repetition, which is plenty for the
	// per-layer medians and keeps the trace file small. The repetitions are
	// sized to fit into -seconds on the reference host; one that would end
	// past twice that is not started, so a host that has turned several
	// times slower costs repetitions, not the run's deadline.
	reps := sz.Reps
	if o.trace {
		reps = 1
	}
	budget := 2 * time.Duration(o.seconds) * time.Second
	var w workload
	var setups samples
	var scripts []blocks
	defer func() {
		if w != nil {
			if terr := w.teardown(); err == nil {
				err = terr
			}
		}
	}()
	began := time.Now()
	ticks, steal := cpuTicks()
	for r := 0; r < reps; r++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return res, fmt.Errorf("teardown after repetition %d: %w", r-1, err)
			}
		}
		runtime.GC()
		w = workloads[o.workload]()
		start := time.Now()
		if err := w.setup(e); err != nil {
			return res, fmt.Errorf("%s: set-up %d: %w", o.workload, r, err)
		}
		setups = append(setups, time.Since(start))
		b, err := w.script(e)
		if err != nil {
			return res, fmt.Errorf("%s: repetition %d: %w", o.workload, r, err)
		}
		scripts = append(scripts, b)
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if r+1 < reps && time.Since(began)+time.Since(start) > budget {
			e.notef("the host is slow: %d of %d repetitions fit into twice -seconds %d", r+1, reps, o.seconds)
			break
		}
	}
	if total, stolen := cpuTicks(); total > ticks {
		e.notef("the hypervisor stole %.1f %% of the CPU time of the repetitions", 100*float64(stolen-steal)/float64(total-ticks))
	}
	e.e2e["setup_s"] = setups.median().Seconds()
	if err := e.timing(scripts); err != nil {
		return res, fmt.Errorf("%s: %w", o.workload, err)
	}
	if err := w.finish(e); err != nil {
		return res, fmt.Errorf("%s: %w", o.workload, err)
	}
	if o.trace {
		a := e.rec.analyze()
		if err := w.layers(e, a); err != nil {
			return res, fmt.Errorf("%s: per-layer metrics: %w", o.workload, err)
		}
		cerr := a.check()
		e.check(cerr == nil, "trace structure: %v", cerr)
		e.layer["trace.wall_s"] = e.e2e["wall_s"]
		e.layer["trace.spans"] = float64(len(a.spans))
		path := filepath.Join(o.out, "trace-"+o.workload+".json")
		if err := a.write(path, header(o, sz, dir)); err != nil {
			return res, err
		}
		e.notef("trace written to %s (%d spans)", path, len(a.spans))
	}
	if err := w.teardown(); err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}
	w = nil

	res = result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed}
	if o.trace {
		res.Metrics, err = render(perLayer, e.layer, true)
	} else {
		res.Metrics, err = render(endToEnd, e.e2e, false)
	}
	if err != nil {
		return res, err
	}
	report(stdout, o, sz, dir, e, setups)
	return res, nil
}

// runHeader is the provenance block printed with every result and stored in
// every trace file.
type runHeader struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  int     `json:"seconds"`
	Traced   bool    `json:"traced"`
	Sizes    sizes   `json:"sizes"`
	Env      envInfo `json:"env"`
}

type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Kernel     string `json:"kernel"`
	DataDirFS  string `json:"data_dir_fs"`
}

func header(o options, sz sizes, dataDir string) runHeader {
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	kernel, fsName := hostInfo(dataDir)
	return runHeader{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Sizes: sz,
		Env: envInfo{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit, Kernel: kernel, DataDirFS: fsName,
		},
	}
}

// report prints every metric the run measured by name with its unit, then
// the notes (sample counts, checks, layer attribution).
func report(w io.Writer, o options, sz sizes, dir string, e *env, setups samples) {
	h, err := json.Marshal(header(o, sz, dir))
	if err != nil { // plain structs of numbers and strings
		panic(err)
	}
	fmt.Fprintf(w, "run %s\n", h)
	mode := "measured run (tracing off)"
	if o.trace {
		mode = "traced run: end-to-end numbers below carry tracing overhead and are not the gated ones"
	}
	fmt.Fprintf(w, "%s, %d repetitions, set-ups %v\n", mode, len(setups), []time.Duration(setups))
	show := func(defs []metricDef, m metrics) {
		for _, d := range defs {
			if v, ok := m[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(endToEnd, e.e2e)
	if o.trace {
		show(perLayer, e.layer)
	}
	for _, n := range e.notes {
		fmt.Fprintln(w, " ", n)
	}
	fmt.Fprintf(w, "operations and checks: %d attempted, %d failed\n", e.attempted, e.failed)
}

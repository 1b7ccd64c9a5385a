// Command perfbench is the repository benchmark. It measures the two
// planes of memstream through their public Go functions: the
// discrete-event simulator (the paper's experiment suite and the sharded
// million-stream scenario) and the live pacing server (serve.Server on
// the timer-wheel plane).
//
//	perfbench --workload suite|scale|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run;
// with --trace 1 it prints the per-layer metrics of a run that records
// spans around every call into a layer and writes them to --spans. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// A failed output check makes "correct" false; a run that cannot
// proceed exits non-zero without printing a result. Run it from the
// repository root: the suite workload reads the pinned experiment
// digests from internal/experiments/testdata.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// endToEnd are the metrics a user of either plane sees, reported by
// every workload (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"rss_peak_mb", "MB"},
	{"ttfb_p50_ms", "ms"},
}

// perLayer are the per-layer metrics of a traced run. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"experiments.hybrid.wall_ms", "ms"},
	{"experiments.dynamics.wall_ms", "ms"},
	{"experiments.validate.wall_ms", "ms"},
	{"experiments.tiercompare.wall_ms", "ms"},
	{"experiments.fig9-zipf.wall_ms", "ms"},
	{"experiments.other.wall_ms", "ms"},
	{"workload.catalog_ms", "ms"},
	{"workload.admission_replay_ms", "ms"},
	{"workload.draw_ms", "ms"},
	{"mems.service_ns_per_io", "ns"},
	{"bank.request_ns", "ns"},
	{"disk.clook_ns_per_io", "ns"},
	{"disk.service_ns_per_io", "ns"},
	{"disk.position_frac", "frac"},
	{"disk.util", "frac"},
	{"server.partition_ms_p50", "ms"},
	{"server.partition_ms_p95", "ms"},
	{"server.ns_per_stream_cycle", "ns"},
	{"server.ns_per_event", "ns"},
	{"server.underflows", "count"},
	{"server.margin_p5_ms", "ms"},
	{"sim.events_per_stream_cycle", "count"},
	{"shard.overlap", "frac"},
	{"shard.tail_ms", "ms"},
	{"shard.stream_cycles_per_s", "1/s"},
	{"serve.accept_ms_p50", "ms"},
	{"serve.accept_ms_p99", "ms"},
	{"serve.dispatch_ms_p50", "ms"},
	{"serve.dispatch_ms_p99", "ms"},
	{"serve.admission_us_p50", "us"},
	{"serve.admission_us_p99", "us"},
	{"wheel.first_chunk_ms_p50", "ms"},
	{"wheel.first_chunk_ms_p99", "ms"},
	{"serve.ttfb_p99_ms", "ms"},
	{"serve.lag_p50_ms", "ms"},
	{"serve.lag_p99_ms", "ms"},
	{"serve.server_lag_p99_ms", "ms"},
	{"serve.cpu_us_per_stream_s", "us"},
	{"serve.active_streams_mean", "count"},
	{"wheel.ticks_per_s", "1/s"},
	{"wheel.fires_per_s", "1/s"},
	{"serve.completed", "count"},
	{"serve.evicted", "count"},
	{"serve.aborted", "count"},
	{"serve.busy", "count"},
	{"serve.gen_late_p99_ms", "ms"},
	{"serve.gen_late_max_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"failed_frac", "frac"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

type metricDef struct{ name, unit string }

// run carries one invocation's settings and what it measured.
type run struct {
	seed    uint64
	seconds int
	traced  bool

	clk *clock
	tr  *tracer // nil unless traced

	attempted, failed int
	problems          []string
	e2e, layer        map[string]float64
}

func newRun(seed uint64, seconds int, traced bool) *run {
	r := &run{
		seed: seed, seconds: seconds, traced: traced,
		clk: &clock{origin: time.Now()},
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
	if traced {
		r.tr = &tracer{}
	}
	return r
}

// check records a failed output check; the run then reports
// "correct": false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// deadline is when the timed passes of a pass-based workload stop.
func (r *run) deadline() time.Time {
	return time.Now().Add(time.Duration(r.seconds) * time.Second)
}

// setupReps is how many times a workload builds its inputs and system
// per run; setup_s reports the median.
const setupReps = 21

// timeSetup runs build setupReps times and returns the median wall time
// in seconds. The state of the last build is what the run uses. It then
// restarts the peak-RSS count, so rss_peak_mb measures the workload and
// not the garbage of the discarded builds.
func timeSetup(build func() error) (float64, error) {
	var walls []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
	return median(walls), resetPeakRSS()
}

// processStartS times setupReps starts of this binary that exit right
// after flag parsing, and returns the median in seconds: the runtime,
// package initialisation, and everything else a process pays before it
// can make its first call.
func processStartS() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("process start: %w", err)
	}
	s, err := timeSetup(func() error { return exec.Command(exe, "--init-only").Run() })
	if err != nil {
		return 0, fmt.Errorf("process start: %w", err)
	}
	return s, nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: suite, scale or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 10, "how long the timed part of the run lasts")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	spansDir := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	initOnly := fs.Bool("init-only", false, "exit after start-up (times process start)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *initOnly {
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	workloads := map[string]func(*run) error{
		"suite": func(r *run) error { return runSuite(r, defaultSuite()) },
		"scale": func(r *run) error { return runScale(r, defaultScale()) },
		"serve": func(r *run) error { return runServe(r, defaultServe()) },
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want suite, scale or serve)\n", *workload)
		return 2
	}

	startS, err := processStartS()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := newRun(*seed, *seconds, *traceFlag == 1)
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stderr, "setup: process start %.4fs, the rest %.4fs\n", startS, r.e2e["setup_s"])
	r.e2e["setup_s"] += startS
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r.e2e["rss_peak_mb"] = rss
	if r.attempted > 0 {
		r.layer["failed_frac"] = float64(r.failed) / float64(r.attempted)
	}

	prov := hostProvenance(*workload, *seed, *seconds, r.traced)
	if r.traced {
		r.layer["trace.spans"] = float64(len(r.tr.spans))
		rows := layerTable(r.tr.spans)
		printTable(stderr, rows)
		path, err := writeSpans(*spansDir, prov, rows, r.tr.spans)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s\n", path)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "check failed: %s\n", p)
	}
	pj, _ := json.Marshal(map[string]provenance{"provenance": prov})
	fmt.Fprintln(stdout, string(pj))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// result assembles the final line: every end-to-end metric of an
// untraced run, or every per-layer metric of a traced one.
func (r *run) result() (result, error) {
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if r.attempted < 1 {
		return res, errors.New("nothing was attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !r.traced {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			return res, fmt.Errorf("metric %s is measured but not declared", name)
		}
	}
	return res, nil
}

// timing is what every timed pass records.
type timing struct {
	wall, cpu time.Duration
	rt        [2]rtSample // runtime/metrics before and after
}

func (t timing) times() timing { return t }

// timedPass is a pass result that carries its timing.
type timedPass interface{ times() timing }

// timeCall runs fn and records its wall time, process CPU time and the
// runtime/metrics readings around it.
func timeCall(fn func() error) (timing, error) {
	var t timing
	t.rt[0] = readRuntime()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := fn()
	t.wall = time.Since(t0)
	t.cpu = cpuTime() - cpu0
	t.rt[1] = readRuntime()
	return t, err
}

// timedPasses runs one warm-up pass, so the heap and caches settle, then
// timed passes until the run's seconds are up and at least minPasses
// have run. In a traced run record turns every timed pass into spans
// after the pass: a pass runs the same code traced or not, so the cost
// of tracing is the time record takes, reported as trace.overhead_pct.
//
// The warm-up's excess over the slowest timed pass counts as set-up.
// An ordinary warm-up is no slower than some timed pass and adds
// nothing; work a change moves into one-time or lazy initialisation
// lands in setup_s once it exceeds the pass-to-pass spread.
func timedPasses[P timedPass](r *run, minPasses int, pass func() (P, error), record func(P)) (warm P, passes []P, err error) {
	if warm, err = pass(); err != nil {
		return warm, nil, err
	}
	end := r.deadline()
	var recording, slowest, total time.Duration
	for i := 0; len(passes) < minPasses || time.Now().Before(end); i++ {
		p, err := pass()
		if err != nil {
			return warm, nil, err
		}
		t := p.times()
		fmt.Fprintf(os.Stderr, "pass %d: wall %.4fs cpu %.4fs\n", i, t.wall.Seconds(), t.cpu.Seconds())
		slowest, total = max(slowest, t.wall), total+t.wall
		if r.traced {
			t0 := time.Now()
			record(p)
			recording += time.Since(t0)
		}
		passes = append(passes, p)
	}
	w := warm.times().wall
	fmt.Fprintf(os.Stderr, "warm-up: wall %.4fs, slowest timed pass %.4fs\n", w.Seconds(), slowest.Seconds())
	r.e2e["setup_s"] += max(0, w-slowest).Seconds()
	if r.traced {
		r.layer["trace.overhead_pct"] = 100 * recording.Seconds() / total.Seconds()
	}
	return warm, passes, nil
}

// passTimes reports the median wall and CPU seconds of passes, and the
// median GC CPU share and MiB allocated per pass.
func passTimes[P timedPass](ps []P) (wall, cpu, gcFrac, allocMB float64) {
	var w, c, g, a []float64
	for _, p := range ps {
		t := p.times()
		w = append(w, t.wall.Seconds())
		c = append(c, t.cpu.Seconds())
		gf, am := runtimeDelta(t.rt[0], t.rt[1])
		g = append(g, gf)
		a = append(a, am)
	}
	return median(w), median(c), median(g), median(a)
}

package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"memstream/internal/disk"
	"memstream/internal/metrics"
	"memstream/internal/model"
	"memstream/internal/schedule"
	"memstream/internal/serve"
	"memstream/internal/sim"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// serveConfig sizes the serve workload; tests shrink it.
type serveConfig struct {
	arrivals  float64       // PLAY arrivals per second (open loop, Poisson)
	rate      string        // the stream rate every session asks for in its PLAY line
	hold      time.Duration // session length: Limit is the stream rate times hold
	quantum   time.Duration // wheel pacing quantum
	warm      time.Duration // arrivals before the measured window opens
	window    time.Duration // 0 = the run's --seconds
	lateBound time.Duration // generator lateness p99 beyond which it has fallen behind and the run is invalid
}

func defaultServe() serveConfig {
	return serveConfig{
		arrivals: 800,
		rate:     "10KB",
		hold:     5 * time.Second,
		quantum:  20 * time.Millisecond,
		warm:     6 * time.Second,
		// Scheduling jitter on a loaded 2-core box puts single arrivals a
		// quantum late; five quanta at p99 means the schedule is slipping.
		lateBound: 100 * time.Millisecond,
	}
}

// serveRig is everything the serve workload builds before it opens the
// first session: the arrival schedule, one preallocated sink and
// connection per arrival, the listener, and the server.
type serveRig struct {
	cfg    serveConfig
	rate   units.ByteRate
	limit  units.Bytes
	clk    *clock
	win    *window
	due    []int64
	sinks  []sink
	conns  []memConn
	ln     *memListener
	srv    *serve.Server
	closed atomic.Int64
}

func newServeRig(cfg serveConfig, seed uint64) (*serveRig, error) {
	rate, err := units.ParseRate(cfg.rate)
	if err != nil {
		return nil, err
	}
	req := []byte("PLAY " + cfg.rate + "\n")
	g := &serveRig{
		cfg: cfg, rate: rate, limit: units.BytesIn(rate, cfg.hold),
		clk: &clock{},
		win: &window{from: int64(cfg.warm), to: int64(cfg.warm + cfg.window)},
	}
	sessions, err := workload.SessionProcess{
		ArrivalRate: cfg.arrivals, MeanHold: cfg.hold, BitRate: rate,
	}.Generate(sim.NewRNG(seed), cfg.warm+cfg.window)
	if err != nil {
		return nil, err
	}
	n := len(sessions)
	g.due = make([]int64, n)
	for i, s := range sessions {
		g.due[i] = int64(s.Arrive)
	}
	// Room for one lag sample per lagEvery quanta of a session, plus
	// slack for the partial quanta at either end.
	perSession := int(cfg.hold/cfg.quantum)/lagEvery + 4
	lags := make([]int32, n*perSession)
	g.sinks = make([]sink, n)
	g.conns = make([]memConn, n)
	perNS := float64(rate) / 1e9
	for i := range g.conns {
		g.sinks[i].lags = lags[i*perSession : i*perSession : (i+1)*perSession]
		g.conns[i] = memConn{
			req: req, sink: &g.sinks[i], rate: perNS, clock: g.clk, win: g.win,
			closed: make(chan struct{}), onClose: func() { g.closed.Add(1) },
		}
	}
	g.ln = newMemListener(n, g.clk)
	p := disk.FutureDisk()
	g.srv, err = serve.New(serve.Config{
		Admission: &schedule.MixedAdmission{
			Disk:    model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
			DRAMCap: 64 * units.GB,
		},
		DefaultRate: rate,
		Limit:       g.limit,
		MaxConns:    n + 1,
		Quantum:     cfg.quantum,
		Pacing:      serve.PacingWheel,
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// serveSample is the server's state at one edge of the window.
type serveSample struct {
	at     int64
	cpu    time.Duration
	ticks  uint64
	fires  uint64
	lag    metrics.Snapshot
	rtSamp rtSample
}

func (g *serveRig) sample() serveSample {
	m := g.srv.Metrics()
	return serveSample{
		at: g.clk.now(), cpu: cpuTime(),
		ticks: m.WheelTicks.Load(), fires: m.WheelFires.Load(),
		lag: m.Lag.Snapshot(), rtSamp: readRuntime(),
	}
}

// serveRun is the raw outcome of one serve run.
type serveRun struct {
	late     []int64       // generator lateness per arrival, ns
	edges    []serveSample // the server sampled at each slice edge of the window
	serveErr error
}

// windowSlices is how many equal slices the window is cut into. Per-slice CPU
// figures are reported as medians, so a garbage collection or a noisy
// neighbour in one slice does not move the result.
const windowSlices = 20

// drive opens every session on schedule, samples the server at every
// slice edge of the window, then waits for every session to end and
// shuts the server down. With traced set, sessions due in the second
// half of the window record their accept and request-read times.
func (g *serveRig) drive(traced bool) (serveRun, error) {
	var out serveRun
	out.late = make([]int64, len(g.due))
	edgeAt := make([]int64, windowSlices+1)
	for k := range edgeAt {
		edgeAt[k] = g.win.from + (g.win.to-g.win.from)*int64(k)/windowSlices
	}
	mid := edgeAt[windowSlices/2]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g.clk.origin = time.Now()
	served := make(chan error, 1)
	go func() { served <- g.srv.Serve(ctx, g.ln) }()

	for i, due := range g.due {
		for len(out.edges) < len(edgeAt) && g.clk.now() >= edgeAt[len(out.edges)] {
			out.edges = append(out.edges, g.sample())
		}
		if d := due - g.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		s := &g.sinks[i]
		s.due = due
		s.traceable = traced && due >= mid && due < g.win.to
		out.late[i] = g.clk.now() - due
		g.ln.push(&g.conns[i])
	}
	for len(out.edges) < len(edgeAt) {
		if d := edgeAt[len(out.edges)] - g.clk.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		out.edges = append(out.edges, g.sample())
	}

	// Every session ends by itself once it has its Limit bytes.
	t0 := time.Now()
	limit := 2*g.cfg.hold + 10*time.Second
	for g.closed.Load() < int64(len(g.conns)) {
		if time.Since(t0) > limit {
			cancel()
			<-served
			g.srv.Close()
			return out, fmt.Errorf("%d of %d sessions still open %v after the last arrival",
				int64(len(g.conns))-g.closed.Load(), len(g.conns), limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	out.serveErr = <-served
	g.srv.Close()
	return out, nil
}

// cpuPerStreamS is the median over slices in edges of the process CPU
// per held stream-second, in seconds.
func (g *serveRig) cpuPerStreamS(edges []serveSample) float64 {
	var per []float64
	for k := 1; k < len(edges); k++ {
		a, b := edges[k-1], edges[k]
		per = append(per, (b.cpu-a.cpu).Seconds()/g.streamSeconds(a.at, b.at))
	}
	return median(per)
}

func runServe(r *run, cfg serveConfig) error {
	if cfg.window == 0 {
		cfg.window = time.Duration(r.seconds) * time.Second
	}
	var g *serveRig
	setupS, err := timeSetup(func() error {
		if g != nil {
			g.srv.Close()
		}
		var err error
		g, err = newServeRig(cfg, r.seed)
		return err
	})
	if err != nil {
		if g != nil {
			g.srv.Close()
		}
		return err
	}
	r.e2e["setup_s"] = setupS
	// rss_peak_mb counts the benchmark's own storage too; this is its
	// size, next to an idle server, before the first session opens.
	fmt.Fprintf(os.Stderr, "serve: %d sessions scheduled, live heap before the first one %.1f MiB (schedule, sinks, conns, lag storage)\n",
		len(g.sinks), liveHeapMB())

	out, err := g.drive(r.traced)
	if err != nil {
		return err
	}
	if out.serveErr != nil {
		return fmt.Errorf("serve: %w", out.serveErr)
	}
	g.checks(r, out)
	g.endToEnd(r, out)
	if r.traced {
		g.layers(r, out)
		if err := runProbes(r); err != nil {
			return err
		}
	}
	return nil
}

// checks verifies the server's outputs and the generator's health.
func (g *serveRig) checks(r *run, out serveRun) {
	m := g.srv.Metrics()
	n := uint64(len(g.sinks))
	completed, evicted, aborted := m.Completed.Load(), m.Evicted.Load(), m.Aborted.Load()
	admitted, busy, sheds := m.AdmittedTotal.Load(), m.AdmissionBusy.Load(), m.Sheds.Load()
	r.check(busy == 0 && sheds == 0, "BUSY at the offered load: admission %d, connection cap %d", busy, sheds)
	r.check(completed+evicted+aborted == admitted,
		"completed %d + evicted %d + aborted %d != admitted %d", completed, evicted, aborted, admitted)
	r.check(admitted == n, "admitted %d of %d sessions", admitted, n)

	var full uint64
	var drops int32
	for i := range g.sinks {
		s := &g.sinks[i]
		r.check(s.bytes <= int64(g.limit), "session %d received %d bytes, limit %d", i, s.bytes, int64(g.limit))
		if !s.busy && s.bytes == int64(g.limit) {
			full++
		}
		drops += s.lagDrops
	}
	r.check(full == completed, "%d sessions received exactly %v, server completed %d", full, g.limit, completed)
	r.check(drops == 0, "%d lag samples did not fit their preallocated storage", drops)

	r.attempted += int(n)
	r.failed += int(n - full)

	late := sortedMS(out.late)
	p99, _ := quantile(late, 0.99)
	r.check(p99 <= float64(g.cfg.lateBound)/1e6,
		"generator fell behind: lateness p99 %.3f ms > bound %v (run invalid)", p99, g.cfg.lateBound)
	fmt.Fprintf(os.Stderr, "generator: lateness p99 %.3f ms, max %.3f ms (bound p99 %v)\n", p99, late[len(late)-1], g.cfg.lateBound)
	r.layer["serve.gen_late_p99_ms"] = p99
	r.layer["serve.gen_late_max_ms"] = late[len(late)-1]
}

// inWindow reports whether session i was due inside the measured window.
func (g *serveRig) inWindow(i int) bool { return g.win.contains(g.sinks[i].due) }

// streamSeconds integrates the number of sessions holding a slot (from
// response line to close) over [from, to).
func (g *serveRig) streamSeconds(from, to int64) float64 {
	var ns int64
	for i := range g.sinks {
		s := &g.sinks[i]
		if lo, hi := max(s.resp, from), min(s.closed, to); hi > lo {
			ns += hi - lo
		}
	}
	return float64(ns) / 1e9
}

func (g *serveRig) endToEnd(r *run, out serveRun) {
	var ttfb, overrun []float64
	perNS := float64(g.rate) / 1e9
	for i := range g.sinks {
		s := &g.sinks[i]
		if g.inWindow(i) && s.bytes > 0 {
			ttfb = append(ttfb, float64(s.first-s.due)/1e6)
			// How late the last chunk came against the session's schedule
			// anchored at its due time: what the session took beyond its
			// nominal play time, so slower accept, admission or pacing all
			// move it.
			lastDue := s.due + int64(float64(s.lastOff)/perNS)
			overrun = append(overrun, float64(s.last-lastDue)/1e9)
		}
	}
	r.e2e["ttfb_p50_ms"] = median(ttfb)
	r.e2e["wall_s"] = median(overrun)
	// CPU per session: process CPU per held stream-second, times the
	// seconds one session holds its stream.
	r.e2e["cpu_s"] = g.cpuPerStreamS(out.edges) * g.cfg.hold.Seconds()

	slices.Sort(ttfb)
	r.quantileMetric("serve.ttfb_p99_ms", ttfb, 0.99, 1)
}

func (g *serveRig) layers(r *run, out serveRun) {
	a, b := out.edges[0], out.edges[len(out.edges)-1]
	secs := float64(b.at-a.at) / 1e9
	r.layer["serve.cpu_us_per_stream_s"] = g.cpuPerStreamS(out.edges) * 1e6
	r.layer["serve.active_streams_mean"] = g.streamSeconds(a.at, b.at) / secs
	r.layer["wheel.ticks_per_s"] = float64(b.ticks-a.ticks) / secs
	r.layer["wheel.fires_per_s"] = float64(b.fires-a.fires) / secs
	r.layer["runtime.gc_cpu_frac"], r.layer["runtime.alloc_mb"] = runtimeDelta(a.rtSamp, b.rtSamp)

	var lag metrics.Snapshot
	for i := range lag.Counts {
		lag.Counts[i] = b.lag.Counts[i] - a.lag.Counts[i]
	}
	lag.N = b.lag.N - a.lag.N
	if q, ok := lag.Quantile(0.99); ok {
		r.layer["serve.server_lag_p99_ms"] = q * 1e3
	}

	var lags []float64
	for i := range g.sinks {
		for _, us := range g.sinks[i].lags {
			lags = append(lags, float64(us)/1e3)
		}
	}
	slices.Sort(lags)
	r.quantileMetric("serve.lag_p50_ms", lags, 0.50, 1)
	r.quantileMetric("serve.lag_p99_ms", lags, 0.99, 1)

	m := g.srv.Metrics()
	r.layer["serve.completed"] = float64(m.Completed.Load())
	r.layer["serve.evicted"] = float64(m.Evicted.Load())
	r.layer["serve.aborted"] = float64(m.Aborted.Load())
	r.layer["serve.busy"] = float64(m.AdmissionBusy.Load() + m.Sheds.Load())

	// Stages of a traced session, each timed at the connection boundary.
	var accept, dispatch, admission, first []int64
	for i := range g.sinks {
		s := &g.sinks[i]
		if !s.traceable || s.bytes == 0 {
			continue
		}
		accept = append(accept, s.accepted-s.due)
		dispatch = append(dispatch, s.read-s.accepted)
		admission = append(admission, s.resp-s.read)
		first = append(first, s.first-s.resp)
		root := r.tr.add("serve.session", int64(i), -1, s.due, s.last)
		r.tr.add("serve.accept", int64(i), root, s.due, s.accepted)
		r.tr.add("serve.dispatch", int64(i), root, s.accepted, s.read)
		r.tr.add("serve.admission", int64(i), root, s.read, s.resp)
		r.tr.add("wheel.first_chunk", int64(i), root, s.resp, s.first)
		r.tr.add("wheel.stream", int64(i), root, s.first, s.last)
	}
	pct := func(name string, ns []int64, scale float64) {
		v := sortedMS(ns)
		r.quantileMetric(name+"_p50", v, 0.50, scale)
		r.quantileMetric(name+"_p99", v, 0.99, scale)
	}
	pct("serve.accept_ms", accept, 1)
	pct("serve.dispatch_ms", dispatch, 1)
	pct("serve.admission_us", admission, 1e3)
	pct("wheel.first_chunk_ms", first, 1)

	// The second half of the window ran traced; its CPU per stream-second
	// against the first half's is the tracing overhead.
	half := len(out.edges) / 2
	plain, traced := g.cpuPerStreamS(out.edges[:half+1]), g.cpuPerStreamS(out.edges[half:])
	r.layer["trace.overhead_pct"] = 100 * (traced - plain) / plain
}

package serve

import (
	"fmt"
	"strings"
	"sync/atomic"

	"memstream/internal/metrics"
)

// Metrics is the supervisor's observability surface: monotonic counters
// for every connection outcome plus a pacing-lag histogram. Everything on
// the streaming path is lock-free: the low-rate outcome counters are
// plain atomics, the per-chunk BytesOut counter is sharded per stream
// (metrics.Counter), and each lag sample is one atomic bucket increment
// (metrics.Histogram) — no mutex anywhere, replacing the previous
// sync.Mutex-guarded sampling reservoir that every stream contended on.
//
// Connection outcomes are disjoint by design:
//
//   - Reaped: the server timed out a request line (read deadline) or cut
//     an unterminated line at maxRequestLine — hostile-idle clients.
//   - Aborted: the client vanished of its own accord — disconnected
//     mid-request-line, before the streaming banner, or mid-stream.
//   - Evicted: the server killed an admitted stream — a stalled reader
//     hit the write deadline, or drain/control-plane force-closed it.
//
// Earlier versions cross-counted these (a partial-line disconnect counted
// as a reap; a failed banner write counted as an eviction), which made
// the counters useless for telling hostile clients from flaky ones.
type Metrics struct {
	Accepted      atomic.Uint64   // connections admitted past the conn semaphore
	Sheds         atomic.Uint64   // connections shed BUSY at the max-conns cap
	Reaped        atomic.Uint64   // request lines reaped: read-deadline timeout or maxRequestLine overflow
	Aborted       atomic.Uint64   // clients that disconnected on their own (mid-line, pre-banner, or mid-stream)
	BadRequests   atomic.Uint64   // malformed or unknown commands
	AdmittedTotal atomic.Uint64   // PLAY requests admitted by Theorem 1
	AdmissionBusy atomic.Uint64   // PLAY requests refused by Theorem 1
	Completed     atomic.Uint64   // streams that delivered their full byte budget
	Evicted       atomic.Uint64   // streams the server killed: write deadline or drain/stop force-close
	BytesOut      metrics.Counter // stream payload bytes written (sharded; one handle per stream)

	// Wheel-plane instrumentation (all zero in goroutine mode):
	// WheelTicks counts wheel advances (quanta the tick loop settled,
	// including catch-up after an overrun), WheelFires counts due
	// streams drained — fires/ticks is the batch factor, and fires per
	// second is the wakeup rate one ticker replaces.
	WheelTicks atomic.Uint64
	WheelFires atomic.Uint64

	ActiveStreams atomic.Int64  // gauge: streams currently holding a slot
	WheelStreams  metrics.Gauge // gauge: streams parked on (or being served by) the wheel

	Lag metrics.Histogram // pacing lag per quantum, seconds
}

func newMetrics() *Metrics { return &Metrics{} }

// ObserveLag records one pacing-lag sample (seconds a chunk completed
// after its quantum boundary). Lock-free and allocation-free.
func (m *Metrics) ObserveLag(sec float64) { m.Lag.Observe(sec) }

// LagQuantile returns the q-quantile of the pacing-lag histogram in
// seconds; ok is false when no lag has been observed yet.
func (m *Metrics) LagQuantile(q float64) (float64, bool) { return m.Lag.Quantile(q) }

// lagSamples reports how many lag observations were made.
func (m *Metrics) lagSamples() uint64 { return m.Lag.N() }

// wireCounters is the one ordered table of outcome counters under their
// wire names — the schema shared by the METRICS text line and the HTTP
// /metrics document.
var wireCounters = [...]struct {
	name string
	load func(*Metrics) uint64
}{
	{"accepted", func(m *Metrics) uint64 { return m.Accepted.Load() }},
	{"sheds", func(m *Metrics) uint64 { return m.Sheds.Load() }},
	{"reaped", func(m *Metrics) uint64 { return m.Reaped.Load() }},
	{"aborted", func(m *Metrics) uint64 { return m.Aborted.Load() }},
	{"bad_requests", func(m *Metrics) uint64 { return m.BadRequests.Load() }},
	{"admitted_total", func(m *Metrics) uint64 { return m.AdmittedTotal.Load() }},
	{"admission_busy", func(m *Metrics) uint64 { return m.AdmissionBusy.Load() }},
	{"completed", func(m *Metrics) uint64 { return m.Completed.Load() }},
	{"evicted", func(m *Metrics) uint64 { return m.Evicted.Load() }},
	{"bytes_out", func(m *Metrics) uint64 { return m.BytesOut.Total() }},
	{"wheel_ticks", func(m *Metrics) uint64 { return m.WheelTicks.Load() }},
	{"wheel_fires", func(m *Metrics) uint64 { return m.WheelFires.Load() }},
}

// counterMap renders every outcome counter under its wire name.
func (m *Metrics) counterMap() map[string]uint64 {
	out := make(map[string]uint64, len(wireCounters))
	for _, c := range wireCounters {
		out[c.name] = c.load(m)
	}
	return out
}

// Line renders the expvar-style single-line METRICS response body:
// space-separated key=value pairs, stable key order — the outcome
// counters, then the gauges, then the lag histogram. admitted is the
// current admission-controller gauge, passed in by the server because
// the controller lives behind its lock, not here.
//
// The lag quantile keys are omitted while lag_samples=0: a reader must
// never mistake "no data yet" for "true zero lag" (previously both
// rendered as lag_p50_ms=0.000).
func (m *Metrics) Line(admitted int) string {
	var b strings.Builder
	for _, c := range wireCounters {
		fmt.Fprintf(&b, "%s=%d ", c.name, c.load(m))
	}
	fmt.Fprintf(&b, "admitted=%d active_streams=%d wheel_streams=%d",
		admitted, m.ActiveStreams.Load(), m.WheelStreams.Load())
	// One snapshot serves both the count and the quantiles, so the line
	// can never pair lag_samples=0 with a nonzero quantile (torn read).
	snap := m.Lag.Snapshot()
	fmt.Fprintf(&b, " lag_samples=%d", snap.N)
	if snap.N > 0 {
		names := [...]string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"}
		qs := [...]float64{0.50, 0.95, 0.99}
		for i, name := range names {
			v, _ := snap.Quantile(qs[i])
			fmt.Fprintf(&b, " %s=%.3f", name, v*1e3)
		}
	}
	return b.String()
}

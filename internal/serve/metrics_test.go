package serve

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// parseLine splits a METRICS line into its key=value pairs.
func parseLine(t *testing.T, line string) map[string]string {
	t.Helper()
	kv := map[string]string{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			t.Fatalf("malformed field %q in %q", f, line)
		}
		kv[k] = v
	}
	return kv
}

// Regression: with zero lag samples the line used to render
// lag_p50_ms=0.000, indistinguishable from true zero lag. The quantile
// keys must be omitted until at least one sample exists, and appear once
// one does — including a genuine zero-lag sample, which then correctly
// renders 0.000 alongside lag_samples=1.
func TestMetricsLineOmitsQuantilesWithoutSamples(t *testing.T) {
	m := newMetrics()
	kv := parseLine(t, m.Line(3))
	if kv["admitted"] != "3" {
		t.Errorf("admitted = %q, want 3", kv["admitted"])
	}
	if kv["lag_samples"] != "0" {
		t.Errorf("lag_samples = %q, want 0", kv["lag_samples"])
	}
	for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
		if v, present := kv[k]; present {
			t.Errorf("%s = %q present with no samples; key must be omitted", k, v)
		}
	}
	if _, present := kv["aborted"]; !present {
		t.Error("aborted key missing from METRICS line")
	}
	for k := range m.counterMap() {
		if _, present := kv[k]; !present {
			t.Errorf("/metrics counter %q missing from METRICS line", k)
		}
	}

	m.ObserveLag(0) // a true zero-lag quantum
	kv = parseLine(t, m.Line(3))
	if kv["lag_samples"] != "1" {
		t.Errorf("lag_samples = %q after one observation, want 1", kv["lag_samples"])
	}
	for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
		if kv[k] != "0.000" {
			t.Errorf("%s = %q, want 0.000 (true zero lag, now distinguishable by lag_samples=1)", k, kv[k])
		}
	}
}

// TestMetricsLineNotTorn is the regression test for a torn METRICS line:
// Line used to read lag_samples and each quantile under separate lock
// acquisitions, so a concurrent ObserveLag could land between them and
// produce lag_samples=0 alongside a nonzero lag_p50_ms. The histogram
// rendering derives both from one snapshot, so that combination stays
// impossible; run under -race this also proves the lock-free observe and
// snapshot paths are data-race-free.
func TestMetricsLineNotTorn(t *testing.T) {
	m := newMetrics()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					m.ObserveLag(float64(w*1000+i) * 1e-3)
				}
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		kv := parseLine(t, m.Line(0))
		n, err := strconv.ParseUint(kv["lag_samples"], 10, 64)
		if err != nil {
			t.Fatalf("bad lag_samples %q: %v", kv["lag_samples"], err)
		}
		for _, k := range []string{"lag_p50_ms", "lag_p95_ms", "lag_p99_ms"} {
			v, present := kv[k]
			if n == 0 {
				if present {
					t.Fatalf("torn line: lag_samples=0 but %s=%v rendered", k, v)
				}
				continue
			}
			if !present {
				t.Fatalf("lag_samples=%d but %s missing", n, k)
			}
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				t.Fatalf("bad %s %q: %v", k, v, err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile for
// it to mean anything: a p99 over 300 samples rests on three values.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// samples and how many samples lie strictly beyond its rank. It returns
// 0 and 0 for an empty slice.
func quantile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(p*float64(n))) - 1
	k = max(0, min(k, n-1))
	return sorted[k], n - 1 - k
}

// tailLadder is the set of tail percentiles the benchmark may report,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile returns the highest percentile on tailLadder that has
// at least minBeyond samples beyond it in n samples, and how many it
// has. ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		k := int(math.Ceil(p*float64(n))) - 1
		if b := n - 1 - max(k, 0); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// median of unsorted values; the input is left untouched.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sortedMS converts nanosecond samples to sorted milliseconds.
func sortedMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	slices.Sort(out)
	return out
}

// quantileMetric sets the per-layer metric name to the p-quantile of
// sorted times scale, and logs how many samples back it. A percentile
// with fewer than minBeyond samples beyond it is logged as unsupported,
// with the highest one the samples do support.
func (r *run) quantileMetric(name string, sorted []float64, p, scale float64) {
	v, beyond := quantile(sorted, p)
	r.layer[name] = v * scale
	note := ""
	if beyond < minBeyond {
		hp, _, ok := tailPercentile(len(sorted))
		note = fmt.Sprintf(" (fewer than %d beyond; highest supported: p%g, ok=%v)", minBeyond, hp*100, ok)
	}
	fmt.Fprintf(os.Stderr, "%s: %d samples, %d beyond%s\n", name, len(sorted), beyond, note)
}

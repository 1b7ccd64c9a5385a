package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p      float64
		v      float64
		beyond int
	}{
		{0.5, 5, 5},
		{0.9, 9, 1},
		{0.99, 10, 0},
		{0.01, 1, 9},
	}
	for _, c := range cases {
		v, b := quantile(s, c.p)
		if v != c.v || b != c.beyond {
			t.Errorf("quantile(1..10, %v) = %v with %d beyond, want %v with %d", c.p, v, b, c.v, c.beyond)
		}
	}
	if v, b := quantile(nil, 0.5); v != 0 || b != 0 {
		t.Errorf("quantile(empty) = %v, %d; want 0, 0", v, b)
	}
}

// The highest percentile with at least ten samples beyond it: the
// scale workload's 245 partitions support p95 (12 beyond) but not p99.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{245, 0.95, 12, true},
		{1000, 0.99, 10, true},
		{999, 0.95, 49, true},
		{10000, 0.999, 10, true},
		{21, 0.50, 10, true},
		{20, 0.50, 10, true},
		{19, 0, 0, false},
		{0, 0, 0, false},
	}
	for _, c := range cases {
		p, b, ok := tailPercentile(c.n)
		if p != c.p || b != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %d, %v; want %v, %d, %v", c.n, p, b, ok, c.p, c.beyond, c.ok)
		}
		if ok {
			s := make([]float64, c.n)
			for i := range s {
				s[i] = float64(i)
			}
			if _, qb := quantile(s, p); qb != b {
				t.Errorf("n=%d: tailPercentile says %d beyond p%v, quantile says %d", c.n, b, p*100, qb)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	in := []float64{3, 1, 2, 10}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, math.Inf(1), 1}); got != 4 {
		t.Errorf("odd median = %v, want 4", got)
	}
}

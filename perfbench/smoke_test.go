package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"memstream/internal/shard"
	"memstream/internal/units"
)

// Tiny versions of the three workloads, untraced and traced: every
// metric is produced and every output check passes.

func tinySuite() suiteConfig {
	return suiteConfig{
		ids:        []string{"fig2", "table1"},
		pinnedPath: "../internal/experiments/testdata/pinned_results.json",
		minPasses:  1,
	}
}

func tinyScale() scaleConfig {
	return scaleConfig{
		newPlan: func() shard.Plan {
			p, err := shard.Uniform(2*4096, 4096, 10*units.KBPS, 0)
			if err != nil {
				panic(err)
			}
			return p
		},
		shards:    2,
		minPasses: 1,
	}
}

func tinyServe() serveConfig {
	return serveConfig{
		arrivals:  100,
		rate:      "10KB",
		hold:      200 * time.Millisecond,
		quantum:   20 * time.Millisecond,
		warm:      200 * time.Millisecond,
		window:    400 * time.Millisecond,
		lateBound: 20 * time.Millisecond,
	}
}

func runTiny(t *testing.T, name string, traced bool) *run {
	t.Helper()
	r := newRun(7, 0, traced)
	var err error
	switch name {
	case "suite":
		err = runSuite(r, tinySuite())
	case "scale":
		err = runScale(r, tinyScale())
	case "serve":
		err = runServe(r, tinyServe())
	}
	if err != nil {
		t.Fatal(err)
	}
	r.e2e["rss_peak_mb"] = 1
	for _, p := range r.problems {
		t.Errorf("check failed: %s", p)
	}
	if _, err := r.result(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSmokeUntraced(t *testing.T) {
	for _, name := range []string{"suite", "scale", "serve"} {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, false)
			for _, d := range endToEnd {
				if r.e2e[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, r.e2e[d.name])
				}
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"suite", "scale", "serve"} {
		t.Run(name, func(t *testing.T) {
			r := runTiny(t, name, true)
			rows := layerTable(r.tr.spans)
			if len(rows) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			for _, p := range []string{"probe.disk_clook", "probe.mems_service"} {
				if !hasRow(rows, p) {
					t.Errorf("no %s spans", p)
				}
			}
			own := map[string]string{"suite": "experiments.run/fig2", "scale": "server.run", "serve": "serve.session"}[name]
			if !hasRow(rows, own) {
				t.Errorf("no %s spans in %v", own, rows)
			}
			path, err := writeSpans(t.TempDir(), provenance{Workload: name, Seed: r.seed}, rows, r.tr.spans)
			if err != nil {
				t.Fatal(err)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Fatalf("spans file %s: %v", path, err)
			}
		})
	}
}

func hasRow(rows []layerRow, name string) bool {
	for _, r := range rows {
		if r.Name == name {
			return true
		}
	}
	return false
}

// Self time subtracts the union of the children, which may overlap.
func TestLayerTableSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 30, End: 60},
		{Name: "child", Parent: 0, Start: 90, End: 120},
	}
	for _, row := range layerTable(spans) {
		want := map[string]float64{"root": 40e-6, "child": 90e-6}[row.Name]
		if diff := row.SelfMS - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s self = %v ms, want %v", row.Name, row.SelfMS, want)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "suite", "--trace", "2"},
		{"--workload", "suite", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("realMain(%q) = 0, want non-zero", args)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics perfbench prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code has %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ","); got != "suite,scale,serve" {
		t.Errorf("workloads = %s, want suite,scale,serve", got)
	}
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"memstream/internal/experiments"
	"memstream/internal/tier"
)

// suiteConfig sizes the suite workload; tests shrink it.
type suiteConfig struct {
	ids        []string // nil = every registered experiment
	pinnedPath string
	minPasses  int
}

// pinnedSeeds are the seeds internal/experiments/testdata pins digests
// for; every run checks the suite's artifacts at both.
var pinnedSeeds = []uint64{experiments.DefaultSeed, 20030305}

func defaultSuite() suiteConfig {
	return suiteConfig{
		pinnedPath: "internal/experiments/testdata/pinned_results.json",
		minPasses:  3,
	}
}

// namedExperiments get a per-layer wall metric of their own; the rest
// are summed into experiments.other.wall_ms.
var namedExperiments = []string{"hybrid", "dynamics", "validate", "tiercompare", "fig9-zipf"}

// suitePass is one RunSuite call at one worker, as a researcher
// regenerating the paper runs it.
type suitePass struct {
	timing
	report  experiments.SuiteReport
	ready   []int64 // ns from pass start until each artifact was ready, as report.Runs
	start   int64   // on the run clock
	digests map[string]string
}

func runSuitePass(r *run, ids []string, seed uint64) (suitePass, error) {
	pos := make(map[string]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	p := suitePass{start: r.clk.now(), ready: make([]int64, len(ids))}
	var rep experiments.SuiteReport
	var err error
	p.timing, err = timeCall(func() error {
		rep, err = experiments.RunSuite(ids, seed, 1, func(_, _ int, run experiments.RunReport) {
			p.ready[pos[run.ID]] = r.clk.now() - p.start
		})
		return err
	})
	if err != nil {
		return p, err
	}
	p.report = rep
	p.digests = make(map[string]string, len(rep.Runs))
	for _, run := range rep.Runs {
		p.digests[run.ID] = fingerprint(run.Result)
	}
	return p, nil
}

// fingerprint is the pinned-golden digest recipe of
// internal/experiments/pinned_test.go: the rendered artifact, the
// structured series and the simulation counters, without wall time.
func fingerprint(res experiments.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "output:%s\n", res.Output)
	for _, s := range res.Series {
		b, _ := json.Marshal(s)
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(h, "events:%d streams:%d cycles:%d underflows:%d\n",
		res.Metrics.Events, res.Metrics.Streams, res.Metrics.Cycles, res.Metrics.Underflows)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func loadPinned(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(data, &pinned); err != nil {
		return nil, fmt.Errorf("pinned digests: %s: %w", path, err)
	}
	return pinned, nil
}

func runSuite(r *run, cfg suiteConfig) error {
	var ids []string
	var pinned map[string]string
	setupS, err := timeSetup(func() error {
		if err := experiments.SetTier(tier.Default); err != nil {
			return err
		}
		ids = cfg.ids
		if ids == nil {
			ids = experiments.IDs()
		}
		var err error
		pinned, err = loadPinned(cfg.pinnedPath)
		return err
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setupS

	warm, passes, err := timedPasses(r, cfg.minPasses,
		func() (suitePass, error) { return runSuitePass(r, ids, r.seed) },
		func(p suitePass) { suiteSpans(r.tr, p) })
	if err != nil {
		return err
	}

	for _, p := range append([]suitePass{warm}, passes...) {
		r.attempted += len(p.report.Runs)
		r.failed += p.report.Failed()
		for _, run := range p.report.Runs {
			r.check(run.Error == "", "%s failed: %s", run.ID, run.Error)
			r.check(p.digests[run.ID] == warm.digests[run.ID],
				"%s: artifact digest differs between passes at seed %d", run.ID, r.seed)
		}
	}
	for _, s := range pinnedSeeds {
		p, err := runSuitePass(r, ids, s)
		if err != nil {
			return err
		}
		for _, id := range ids {
			key := fmt.Sprintf("%s@%d", id, s)
			want, ok := pinned[key]
			r.check(ok, "%s: no pinned digest", key)
			r.check(!ok || p.digests[id] == want, "%s: digest %s, pinned %s", key, p.digests[id], want)
		}
	}

	var ready []float64
	for _, p := range passes {
		for _, ns := range p.ready {
			ready = append(ready, float64(ns)/1e6)
		}
	}
	r.e2e["wall_s"], r.e2e["cpu_s"], r.layer["runtime.gc_cpu_frac"], r.layer["runtime.alloc_mb"] = passTimes(passes)
	r.e2e["ttfb_p50_ms"] = median(ready)

	if r.traced {
		suiteLayers(r, passes)
		if err := runProbes(r); err != nil {
			return err
		}
	}
	return nil
}

// suiteSpans records a pass and the experiments inside it. An
// experiment's span ends when the runner reported it and spans the wall
// time the runner measured for it.
func suiteSpans(tr *tracer, p suitePass) {
	root := tr.add("suite.pass", 0, -1, p.start, p.start+int64(p.wall))
	for i, run := range p.report.Runs {
		end := p.start + p.ready[i]
		tr.add("experiments.run/"+run.ID, int64(i), root, end-int64(run.Wall), end)
	}
}

func suiteLayers(r *run, passes []suitePass) {
	named := map[string][]float64{}
	var other, nsPerEvent []float64
	for _, p := range passes {
		var otherMS, evWall float64
		var events uint64
		for _, run := range p.report.Runs {
			ms := float64(run.Wall) / 1e6
			if slices.Contains(namedExperiments, run.ID) {
				named[run.ID] = append(named[run.ID], ms)
			} else {
				otherMS += ms
			}
			if run.Events > 0 {
				events += run.Events
				evWall += float64(run.Wall)
			}
		}
		other = append(other, otherMS)
		if events > 0 {
			nsPerEvent = append(nsPerEvent, evWall/float64(events))
		}
	}
	for _, id := range namedExperiments {
		r.layer["experiments."+id+".wall_ms"] = median(named[id])
	}
	r.layer["experiments.other.wall_ms"] = median(other)
	r.layer["server.ns_per_event"] = median(nsPerEvent)

	underflows := 0
	for _, run := range passes[0].report.Runs {
		underflows += run.Underflows
	}
	r.layer["server.underflows"] = float64(underflows)
}

package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"memstream/internal/server"
	"memstream/internal/shard"
)

// scaleConfig sizes the scale workload; tests shrink it.
type scaleConfig struct {
	newPlan   func() shard.Plan
	plan      shard.Plan // set by setup
	shards    int
	minPasses int
}

func defaultScale() scaleConfig {
	return scaleConfig{newPlan: shard.MillionStreams, shards: runtime.NumCPU(), minPasses: 3}
}

// scalePass is one shard.Run of the whole plan.
type scalePass struct {
	timing
	report  shard.Report
	start   int64   // on the run clock
	built   []int64 // per partition: Build called, on the run clock
	runFrom []int64 // per partition: Build returned, so server.Run began
	render  string
}

func runScalePass(r *run, cfg scaleConfig) (scalePass, error) {
	n := cfg.plan.Partitions
	p := scalePass{built: make([]int64, n), runFrom: make([]int64, n)}
	plan := cfg.plan
	build := plan.Build
	// shard.Run calls Build right before it runs the partition, so the
	// partition's start is taken here; each goroutine writes only its
	// own partitions' slots, and Run returns after every one has ended.
	plan.Build = func(part int, seed uint64) (server.Config, error) {
		p.built[part] = r.clk.now()
		c, err := build(part, seed)
		p.runFrom[part] = r.clk.now()
		return c, err
	}
	p.start = r.clk.now()
	var rep shard.Report
	var err error
	p.timing, err = timeCall(func() error {
		rep, err = shard.Run(plan, r.seed, cfg.shards)
		return err
	})
	if err != nil {
		return p, err
	}
	p.report = rep
	p.render = rep.Merged.Render()
	return p, nil
}

// streamCycles is the simulated work of a pass: each partition's
// streams times its scheduling cycles.
func streamCycles(rep shard.Report) float64 {
	var sc float64
	for _, pr := range rep.Parts {
		sc += float64(pr.Result.Streams) * float64(pr.Result.Cycles)
	}
	return sc
}

func runScale(r *run, cfg scaleConfig) error {
	var plan shard.Plan
	setupS, err := timeSetup(func() error {
		plan = cfg.newPlan()
		// Building every partition's configuration validates the plan
		// before any timing starts.
		for part := 0; part < plan.Partitions; part++ {
			if _, err := plan.Build(part, shard.SeedFor(r.seed, part)); err != nil {
				return fmt.Errorf("partition %d: %w", part, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setupS
	cfg.plan = plan

	warm, passes, err := timedPasses(r, cfg.minPasses,
		func() (scalePass, error) { return runScalePass(r, cfg) },
		func(p scalePass) { scaleSpans(r.tr, p) })
	if err != nil {
		return err
	}

	for _, p := range append([]scalePass{warm}, passes...) {
		r.attempted += len(p.report.Parts)
		for _, pr := range p.report.Parts {
			if pr.Err != "" {
				r.failed++
			}
		}
		r.check(p.report.Merged.Underflows == 0, "merged underflows = %d, want 0", p.report.Merged.Underflows)
		r.check(p.render == warm.render, "merged artifact differs between passes at seed %d", r.seed)
	}

	var ready []float64
	for _, p := range passes {
		for part, pr := range p.report.Parts {
			ready = append(ready, float64(p.runFrom[part]+int64(pr.Wall)-p.start)/1e6)
		}
	}
	r.e2e["wall_s"], r.e2e["cpu_s"], r.layer["runtime.gc_cpu_frac"], r.layer["runtime.alloc_mb"] = passTimes(passes)
	r.e2e["ttfb_p50_ms"] = median(ready)

	if r.traced {
		scaleLayers(r, passes)
		if err := runProbes(r); err != nil {
			return err
		}
	}
	return nil
}

// scaleSpans records the shard.Run call and, under it, each partition's
// Build and server.Run (from the partition's wall in the report).
func scaleSpans(tr *tracer, p scalePass) {
	root := tr.add("shard.run", 0, -1, p.start, p.start+int64(p.wall))
	for part, pr := range p.report.Parts {
		tr.add("shard.build", int64(part), root, p.built[part], p.runFrom[part])
		tr.add("server.run", int64(part), root, p.runFrom[part], p.runFrom[part]+int64(pr.Wall))
	}
}

func scaleLayers(r *run, passes []scalePass) {
	var partMS, nsPerSC, nsPerEv, overlap, tail, scPerS []float64
	for _, p := range passes {
		rep := p.report
		var busy, longest time.Duration
		for _, st := range rep.Stripe {
			busy += st.Wall
			longest = max(longest, st.Wall)
		}
		var sumWall float64
		for _, pr := range rep.Parts {
			partMS = append(partMS, float64(pr.Wall)/1e6)
			sumWall += float64(pr.Wall)
		}
		sc := streamCycles(rep)
		nsPerSC = append(nsPerSC, sumWall/sc)
		nsPerEv = append(nsPerEv, sumWall/float64(rep.Merged.Events))
		overlap = append(overlap, float64(busy)/float64(rep.Wall))
		tail = append(tail, float64(rep.Wall-longest)/1e6)
		scPerS = append(scPerS, sc/rep.Wall.Seconds())
	}
	// Partition walls pooled over the timed passes; one pass alone
	// supports p95 (245 samples, 12 beyond) but not p99.
	slices.Sort(partMS)
	r.quantileMetric("server.partition_ms_p50", partMS, 0.50, 1)
	r.quantileMetric("server.partition_ms_p95", partMS, 0.95, 1)
	r.layer["server.ns_per_stream_cycle"] = median(nsPerSC)
	r.layer["server.ns_per_event"] = median(nsPerEv)
	r.layer["shard.overlap"] = median(overlap)
	r.layer["shard.tail_ms"] = median(tail)
	r.layer["shard.stream_cycles_per_s"] = median(scPerS)

	// Simulated counts: pure functions of the seed. runScale's Render
	// check holds every pass, traced or not, to the same values.
	m := passes[0].report.Merged
	r.layer["sim.events_per_stream_cycle"] = float64(m.Events) / streamCycles(passes[0].report)
	r.layer["server.underflows"] = float64(m.Underflows)
	r.layer["server.margin_p5_ms"] = float64(m.WorstMarginP5) / 1e6
	r.layer["disk.util"] = m.MeanDiskUtil
}

package main

import (
	"fmt"
	"time"

	"memstream/internal/bank"
	"memstream/internal/device"
	"memstream/internal/disk"
	"memstream/internal/model"
	"memstream/internal/shard"
	"memstream/internal/sim"
	"memstream/internal/tier"
	"memstream/internal/units"
	"memstream/internal/workload"
)

// Layer probes: each times one layer's public functions on inputs made
// from the run's seed, the way the workloads use them. They run in every
// traced run after the workload, so their numbers are comparable across
// workloads and never perturb the workload's own timing.

// probeBudget is how long one probe repeats its call; it reports the
// median repetition.
const probeBudget = 80 * time.Millisecond

// probe times op until probeBudget has passed (at least three times),
// records a span per repetition, and returns the median time per unit
// of work in nanoseconds. op returns how many units it did.
func probe(r *run, name string, op func(rep int) (int, error)) (float64, error) {
	var per []float64
	t0 := time.Now()
	for rep := 0; rep < 3 || time.Since(t0) < probeBudget; rep++ {
		s := r.clk.now()
		n, err := op(rep)
		e := r.clk.now()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		r.tr.add("probe."+name, int64(rep), -1, s, e)
		per = append(per, float64(e-s)/float64(n))
	}
	return median(per), nil
}

// scaleStream is the scale scenario's per-stream rate and the size of
// one of its partitions.
const (
	scaleRate  = 10 * units.KBPS
	scalePer   = 4096
	scaleTitle = 64
)

// simClass mirrors the media class the server rig builds for a bit-rate:
// feature-length titles.
func simClass(rate units.ByteRate) workload.MediaClass {
	return workload.MediaClass{Name: "sim", BitRate: rate, Duration: 100 * time.Minute}
}

func runProbes(r *run) error {
	probes := []struct {
		metric string
		fn     func(*run) (float64, error)
	}{
		{"workload.catalog_ms", probeCatalog},
		{"workload.admission_replay_ms", probeAdmission},
		{"workload.draw_ms", probeDraw},
		{"mems.service_ns_per_io", probeMEMS},
		{"bank.request_ns", probeBank},
	}
	for _, p := range probes {
		v, err := p.fn(r)
		if err != nil {
			return err
		}
		r.layer[p.metric] = v
	}
	return probeDisk(r)
}

// probeCatalog builds the catalogs the suite builds: the server rig's
// X:Y catalogs at each title count it uses and the Zipf sweep's.
func probeCatalog(r *run) (float64, error) {
	ns, err := probe(r, "catalog", func(int) (int, error) {
		xy := workload.XYDistribution{X: 10, Y: 90}
		for _, n := range []int{50, 100, 200, 400} {
			if _, err := workload.NewCatalog(n, simClass(100*units.KBPS), xy.Weights(n), 512); err != nil {
				return 0, err
			}
		}
		for _, s := range []float64{0.5, 0.8, 1.0, 1.2, 1.5} {
			if _, err := workload.NewCatalog(1000, simClass(10*units.KBPS), workload.Zipf(1000, s), 512); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	return ns / 1e6, err
}

// probeAdmission generates and replays one session trace at the dynamics
// experiment's parameters: 100 KB/s sessions of ten minutes offered at
// the direct server's capacity for a $100 budget, over six hours.
func probeAdmission(r *run) (float64, error) {
	p := disk.FutureDisk()
	rate := 100 * units.KBPS
	capN := model.MaxStreamsDirect(rate,
		model.DeviceSpec{Rate: p.OuterRate, Latency: p.AvgAccess()},
		model.Table3Costs().DRAMFor(100))
	proc := workload.SessionProcess{ArrivalRate: float64(capN) / 600, MeanHold: 10 * time.Minute, BitRate: rate}
	ns, err := probe(r, "admission_replay", func(rep int) (int, error) {
		sessions, err := proc.Generate(sim.NewRNG(r.seed+uint64(rep)), 6*time.Hour)
		if err != nil {
			return 0, err
		}
		workload.ReplayAdmission(sessions, func(busy int) bool { return busy < capN })
		return 1, nil
	})
	return ns / 1e6, err
}

// partitionDraw builds one scale partition's catalog and draws its
// population exactly as the server rig does for that partition's seed.
func partitionDraw(seed uint64, part int, blockSize units.Bytes) (*workload.Set, error) {
	cat, err := workload.NewCatalog(scaleTitle, simClass(scaleRate),
		workload.XYDistribution{X: 10, Y: 90}.Weights(scaleTitle), blockSize)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(shard.SeedFor(seed, part))
	return workload.NewGenerator(cat, rng.Uint64()).DrawRange(part*scalePer, scalePer)
}

func probeDraw(r *run) (float64, error) {
	dsk, err := disk.New(disk.FutureDisk())
	if err != nil {
		return 0, err
	}
	ns, err := probe(r, "draw", func(rep int) (int, error) {
		_, err := partitionDraw(r.seed, rep, dsk.Geometry().BlockSize)
		return 1, err
	})
	return ns / 1e6, err
}

// probeMEMS stages one disk cycle of 1024 streams into a two-device
// mems-g3 buffer bank and services each device's batch through the
// tier scheduler, in the first-come order the server's chains use.
func probeMEMS(r *run) (float64, error) {
	devs, err := bank.New(2, tier.MustLookup(tier.Default))
	if err != nil {
		return 0, err
	}
	bb, err := bank.NewBufferBank(devs, 256*units.KB)
	if err != nil {
		return 0, err
	}
	const streams = 1024
	for s := 0; s < streams; s++ {
		if _, err := bb.Attach(s); err != nil {
			return 0, err
		}
	}
	return probe(r, "mems_service", func(rep int) (int, error) {
		scheds := make([]tier.Scheduler, len(devs))
		for i, d := range devs {
			d.Reset()
			scheds[i] = tier.NewScheduler(d, tier.FCFS)
		}
		for s := 0; s < streams; s++ {
			req, dev, err := bb.StageRequest(s, int64(rep), 256*units.KB)
			if err != nil {
				return 0, err
			}
			scheds[dev].Enqueue(req)
		}
		ios := 0
		for _, sc := range scheds {
			var now time.Duration
			for {
				c, ok, err := sc.Dispatch(now)
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				now = c.Finish
				ios++
			}
		}
		return ios, nil
	})
}

// probeBank builds the stage and drain requests of eight cycles for
// 1024 streams.
func probeBank(r *run) (float64, error) {
	devs, err := bank.New(2, tier.MustLookup(tier.Default))
	if err != nil {
		return 0, err
	}
	bb, err := bank.NewBufferBank(devs, 256*units.KB)
	if err != nil {
		return 0, err
	}
	const streams, cycles = 1024, 8
	for s := 0; s < streams; s++ {
		if _, err := bb.Attach(s); err != nil {
			return 0, err
		}
	}
	return probe(r, "bank_request", func(int) (int, error) {
		for c := int64(0); c < cycles; c++ {
			for s := 0; s < streams; s++ {
				if _, _, err := bb.StageRequest(s, c, 256*units.KB); err != nil {
					return 0, err
				}
				if _, _, err := bb.DrainRequest(s, c, 256*units.KB); err != nil {
					return 0, err
				}
			}
		}
		return streams * cycles, nil
	})
}

// probeDisk runs one cycle of scale partition 0: its 4096 stream reads,
// at the block positions of the partition's seeded draw, first through
// the C-LOOK scheduler (sort, build and service), then straight through
// the disk model in the order C-LOOK chose (service alone).
func probeDisk(r *run) error {
	dsk, err := disk.New(disk.FutureDisk())
	if err != nil {
		return err
	}
	g := dsk.Geometry()
	set, err := partitionDraw(r.seed, 0, g.BlockSize)
	if err != nil {
		return err
	}
	plan, err := model.DiskDirect(model.StreamLoad{N: scalePer, BitRate: scaleRate},
		model.DeviceSpec{Rate: dsk.EffectiveRate(), Latency: dsk.Params().AvgAccess()})
	if err != nil {
		return err
	}
	ioBlocks := max(int64((plan.IOSize+g.BlockSize-1)/g.BlockSize), 1)
	reqs := make([]device.Request, len(set.Streams))
	for i, st := range set.Streams {
		blk := (st.Title.StartLB + int64(st.Offset/g.BlockSize)) % g.Blocks
		if blk+ioBlocks > g.Blocks {
			blk = 0
		}
		reqs[i] = device.Request{Op: device.Read, Block: blk, Blocks: ioBlocks, Stream: i}
	}

	order := make([]device.Request, 0, len(reqs))
	sched := disk.NewScheduler(dsk, disk.CLook)
	clook, err := probe(r, "disk_clook", func(rep int) (int, error) {
		dsk.Reset()
		for _, q := range reqs {
			sched.Enqueue(q)
		}
		var now time.Duration
		for {
			c, ok, err := sched.Dispatch(now)
			if err != nil {
				return 0, err
			}
			if !ok {
				break
			}
			if rep == 0 {
				order = append(order, c.Request)
			}
			now = c.Finish
		}
		return len(reqs), nil
	})
	if err != nil {
		return err
	}
	service, err := probe(r, "disk_service", func(int) (int, error) {
		dsk.Reset()
		var now time.Duration
		for _, q := range order {
			c, err := dsk.Service(now, q)
			if err != nil {
				return 0, err
			}
			now = c.Finish
		}
		return len(order), nil
	})
	if err != nil {
		return err
	}
	r.layer["disk.clook_ns_per_io"] = clook
	r.layer["disk.service_ns_per_io"] = service
	r.layer["disk.position_frac"] = float64(dsk.TotalSeekTime()+dsk.TotalRotTime()) / float64(dsk.BusyTime())
	return nil
}

package disk

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/device"
	"memstream/internal/sim"
	"memstream/internal/units"
)

func TestParamsValidate(t *testing.T) {
	for _, p := range []Params{FutureDisk(), Atlas10K3()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := []func(*Params){
		func(p *Params) { p.RPM = 0 },
		func(p *Params) { p.Capacity = 0 },
		func(p *Params) { p.Heads = 0 },
		func(p *Params) { p.Zones = 0 },
		func(p *Params) { p.InnerRate = p.OuterRate + 1 },
		func(p *Params) { p.AvgSeek = p.SingleTrackSeek },
		func(p *Params) { p.FullStrokeSeek = p.AvgSeek },
	}
	for i, mut := range mutations {
		p := FutureDisk()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestFutureDiskMatchesPaperTable3(t *testing.T) {
	p := FutureDisk()
	if p.RPM != 20000 {
		t.Errorf("RPM = %d, want 20000", p.RPM)
	}
	if p.OuterRate != 300*units.MBPS {
		t.Errorf("max bandwidth = %v, want 300MB/s", p.OuterRate)
	}
	if p.AvgSeek != units.Milliseconds(2.8) {
		t.Errorf("avg seek = %v, want 2.8ms", p.AvgSeek)
	}
	if p.FullStrokeSeek != units.Milliseconds(7.0) {
		t.Errorf("full stroke = %v, want 7ms", p.FullStrokeSeek)
	}
	if p.Capacity != 1000*units.GB {
		t.Errorf("capacity = %v, want 1TB", p.Capacity)
	}
	if p.CostPerGB != 0.2 {
		t.Errorf("cost = $%v/GB, want $0.2/GB", p.CostPerGB)
	}
}

func TestRotationPeriod(t *testing.T) {
	p := FutureDisk()
	if got := p.RotationPeriod(); got != 3*time.Millisecond {
		t.Errorf("20k RPM period = %v, want 3ms", got)
	}
	if got := p.AvgRotLatency(); got != 1500*time.Microsecond {
		t.Errorf("avg rotational latency = %v, want 1.5ms", got)
	}
}

func TestAvgAccess(t *testing.T) {
	p := FutureDisk()
	// L̄_disk = 2.8ms seek + 1.5ms rotation = 4.3ms.
	if got := p.AvgAccess(); got != units.Milliseconds(4.3) {
		t.Errorf("AvgAccess = %v, want 4.3ms", got)
	}
	if p.MaxAccess() != 10*time.Millisecond {
		t.Errorf("MaxAccess = %v, want 10ms", p.MaxAccess())
	}
}

func TestSeekCurveCalibration(t *testing.T) {
	// A uniformly random seek (measured over many random cylinder pairs)
	// should average close to the published AvgSeek.
	d, err := New(FutureDisk())
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	var s sim.Stats
	p := d.Params()
	for i := 0; i < 50000; i++ {
		a, b := rng.Intn(d.Cylinders()), rng.Intn(d.Cylinders())
		dist := a - b
		if dist < 0 {
			dist = -dist
		}
		if dist == 0 {
			continue
		}
		s.Observe(p.seekTimeNorm(float64(dist)/float64(d.Cylinders()-1), d.exponent).Seconds())
	}
	got := units.Seconds(s.Mean())
	if diff := got - p.AvgSeek; diff < -200*time.Microsecond || diff > 200*time.Microsecond {
		t.Errorf("measured avg seek %v, want ≈%v", got, p.AvgSeek)
	}
}

func TestSeekCurveAnchors(t *testing.T) {
	d, _ := New(FutureDisk())
	p := d.Params()
	if got := p.seekTimeNorm(0, d.exponent); got != 0 {
		t.Errorf("zero-distance seek = %v", got)
	}
	one := p.seekTimeNorm(1.0/float64(d.Cylinders()-1), d.exponent)
	if one < p.SingleTrackSeek || one > p.SingleTrackSeek+50*time.Microsecond {
		t.Errorf("single-track seek = %v, want ≈%v", one, p.SingleTrackSeek)
	}
	if got := p.seekTimeNorm(1, d.exponent); got != p.FullStrokeSeek {
		t.Errorf("full-stroke seek = %v, want %v", got, p.FullStrokeSeek)
	}
}

func TestGeometryRealizesCapacity(t *testing.T) {
	for _, params := range []Params{FutureDisk(), Atlas10K3()} {
		d, err := New(params)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Geometry().Capacity()
		if math.Abs(float64(got-params.Capacity)) > 0.01*float64(params.Capacity) {
			t.Errorf("%s: realized capacity %v, want ≈%v", params.Name, got, params.Capacity)
		}
	}
}

func TestZonesOuterFasterThanInner(t *testing.T) {
	d, _ := New(FutureDisk())
	first := d.ZoneRate(0)
	last := d.ZoneRate(d.Geometry().Blocks - 1)
	if first != 300*units.MBPS {
		t.Errorf("outer zone rate = %v, want 300MB/s", first)
	}
	if last != 170*units.MBPS {
		t.Errorf("inner zone rate = %v, want 170MB/s", last)
	}
	if first <= last {
		t.Error("outer zone not faster than inner")
	}
}

func TestLocateRoundTrip(t *testing.T) {
	d, _ := New(FutureDisk())
	// Walking LBNs within one zone advances sector, then head, then cylinder.
	c0, h0, s0 := d.locate(0)
	if c0 != 0 || h0 != 0 || s0 != 0 {
		t.Fatalf("locate(0) = (%d,%d,%d)", c0, h0, s0)
	}
	z := d.zones[0]
	_, h1, s1 := d.locate(z.sectors) // first sector of second track
	if h1 != 1 || s1 != 0 {
		t.Errorf("locate(track 1) = head %d sector %d, want 1, 0", h1, s1)
	}
	c2, _, _ := d.locate(z.sectors * int64(d.Params().Heads))
	if c2 != 1 {
		t.Errorf("locate(cyl 1) = cylinder %d, want 1", c2)
	}
}

func TestServiceSequentialStreamsAtZoneRate(t *testing.T) {
	d, _ := New(FutureDisk())
	// Read 30MB sequentially from the outer zone in 1MB chunks; aggregate
	// throughput should be close to 300MB/s (within switch overheads).
	const chunk = 2048 // sectors ≈ 1MiB
	var now time.Duration
	var bytes units.Bytes
	for i := int64(0); i < 30; i++ {
		c, err := d.Service(now, device.Request{Block: i * chunk, Blocks: chunk})
		if err != nil {
			t.Fatal(err)
		}
		now = c.Finish
		bytes += units.Bytes(chunk) * 512
	}
	rate := units.RateOf(bytes, now)
	if float64(rate) < 0.85*float64(300*units.MBPS) {
		t.Errorf("sequential throughput = %v, want ≈300MB/s", rate)
	}
}

func TestServiceRandomPaysPositioning(t *testing.T) {
	d, _ := New(FutureDisk())
	rng := sim.NewRNG(2)
	var pos sim.Stats
	now := time.Duration(0)
	for i := 0; i < 2000; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-64))
		c, err := d.Service(now, device.Request{Block: lbn, Blocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		pos.Observe(c.Position.Seconds())
		now = c.Finish
	}
	avg := units.Seconds(pos.Mean())
	want := d.Params().AvgAccess()
	// Random 4KB accesses should average near seek+rotation; allow 25%.
	if math.Abs(float64(avg-want)) > 0.25*float64(want) {
		t.Errorf("avg random positioning = %v, want ≈%v", avg, want)
	}
}

func TestServiceRejectsBadRequests(t *testing.T) {
	d, _ := New(FutureDisk())
	if _, err := d.Service(0, device.Request{Block: d.Geometry().Blocks, Blocks: 1}); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := d.Service(0, device.Request{Block: 0, Blocks: 0}); err == nil {
		t.Error("zero-length accepted")
	}
}

func TestServiceAccountingAndReset(t *testing.T) {
	d, _ := New(FutureDisk())
	var now time.Duration
	for i := 0; i < 5; i++ {
		c, err := d.Service(now, device.Request{Block: int64(i) * 1e6, Blocks: 128})
		if err != nil {
			t.Fatal(err)
		}
		now = c.Finish
	}
	if d.Served() != 5 {
		t.Errorf("Served = %d", d.Served())
	}
	if d.BusyTime() != d.TotalSeekTime()+d.TotalRotTime()+d.TotalTransferTime() {
		t.Error("busy != seek+rot+xfer")
	}
	d.Reset()
	if d.Served() != 0 || d.BusyTime() != 0 {
		t.Error("Reset did not clear stats")
	}
}

func TestRotationalPositionTracking(t *testing.T) {
	d, _ := New(FutureDisk())
	// Two reads of the same sector back-to-back: the second must wait
	// almost a full revolution (deterministic, not random).
	c1, err := d.Service(0, device.Request{Block: 1000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := d.Service(c1.Finish, device.Request{Block: 1000, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	period := d.Params().RotationPeriod()
	if c2.Position < time.Duration(0.9*float64(period)) {
		t.Errorf("re-read rotational wait = %v, want ≈%v", c2.Position, period)
	}
}

// Property: service positioning never exceeds MaxAccess and transfer time
// is positive.
func TestServiceBoundsProperty(t *testing.T) {
	d, _ := New(FutureDisk())
	max := d.Params().MaxAccess() + d.Params().HeadSwitch
	now := time.Duration(0)
	f := func(a uint32, n uint8) bool {
		blocks := int64(n%64) + 1
		lbn := int64(a) % (d.Geometry().Blocks - blocks)
		c, err := d.Service(now, device.Request{Block: lbn, Blocks: blocks})
		if err != nil {
			return false
		}
		now = c.Finish
		return c.Position >= 0 && c.Position <= max && c.Transfer > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSchedulerCLookBeatsFCFS(t *testing.T) {
	run := func(policy Policy) time.Duration {
		d, _ := New(FutureDisk())
		s := NewScheduler(d, policy)
		rng := sim.NewRNG(3)
		for i := 0; i < 50; i++ {
			lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-256))
			s.Enqueue(device.Request{Block: lbn, Blocks: 128, Stream: i})
		}
		cs, err := s.DrainAll(0)
		if err != nil {
			t.Fatal(err)
		}
		return cs[len(cs)-1].Finish
	}
	fcfs, clook := run(FCFS), run(CLook)
	if clook >= fcfs {
		t.Errorf("C-LOOK (%v) not faster than FCFS (%v)", clook, fcfs)
	}
}

func TestSchedulerSSTFServesAll(t *testing.T) {
	d, _ := New(FutureDisk())
	s := NewScheduler(d, SSTF)
	n := 25
	for i := 0; i < n; i++ {
		s.Enqueue(device.Request{Block: int64(i*997%100) * 1e7, Blocks: 8, Stream: i})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, c := range cs {
		seen[c.Stream] = true
	}
	if len(seen) != n {
		t.Errorf("SSTF starved requests: served %d of %d", len(seen), n)
	}
}

func TestSchedulerFCFSPreservesOrder(t *testing.T) {
	d, _ := New(FutureDisk())
	s := NewScheduler(d, FCFS)
	for i := 0; i < 5; i++ {
		s.Enqueue(device.Request{Block: int64(4-i) * 1e6, Blocks: 8, Stream: i})
	}
	cs, _ := s.DrainAll(0)
	for i, c := range cs {
		if c.Stream != i {
			t.Fatalf("FCFS order violated: %v", cs)
		}
	}
}

func TestElevatorReducesAvgSeekBelowRandom(t *testing.T) {
	// The paper's L̄_disk is "scheduler-determined"; with C-LOOK over a
	// batch of N requests the per-request seek should be well under the
	// random-access average.
	d, _ := New(FutureDisk())
	s := NewScheduler(d, CLook)
	rng := sim.NewRNG(4)
	n := 100
	for i := 0; i < n; i++ {
		lbn := int64(rng.Float64() * float64(d.Geometry().Blocks-256))
		s.Enqueue(device.Request{Block: lbn, Blocks: 8})
	}
	cs, err := s.DrainAll(0)
	if err != nil {
		t.Fatal(err)
	}
	var total time.Duration
	for _, c := range cs {
		total += c.Position
	}
	avg := total / time.Duration(n)
	if avg >= d.Params().AvgAccess() {
		t.Errorf("elevator avg positioning %v not below random-access %v", avg, d.Params().AvgAccess())
	}
}

// refCLook is the arrival-order C-LOOK scan the batch index must
// reproduce: the first request, in arrival order, with a strictly lower
// cylinder than any earlier candidate at or above the head; if none is
// at or above the head, the first request at the lowest cylinder.
type refCLook struct {
	dev     *Device
	pending []device.Request
	cyls    []int // cyls[i]: cylinder of pending[i]
}

func (r *refCLook) enqueue(qs []device.Request) {
	for _, q := range qs {
		r.pending = append(r.pending, q)
		r.cyls = append(r.cyls, r.dev.Cylinder(q.Block))
	}
}

func (r *refCLook) dispatch(now time.Duration) (device.Completion, error) {
	cur := r.dev.cyl
	up, low := -1, -1
	for i, c := range r.cyls {
		if c >= cur && (up < 0 || c < r.cyls[up]) {
			up = i
		}
		if low < 0 || c < r.cyls[low] {
			low = i
		}
	}
	if up < 0 {
		up = low
	}
	q := r.pending[up]
	r.pending = slices.Delete(r.pending, up, up+1)
	r.cyls = slices.Delete(r.cyls, up, up+1)
	c, err := r.dev.Service(now, q)
	c.QueueDelay = now - q.Issued
	return c, err
}

// clookBatch draws one seeded batch of n requests of the given shape.
// Stream IDs repeat; Issued numbers the arrivals.
func clookBatch(rng *sim.RNG, d *Device, shape string, n int) []device.Request {
	below := func(n int64) int64 { return int64(rng.Uint64n(uint64(n))) }
	g := d.Geometry()
	perCyl := int64(d.Params().Heads) * d.zones[0].sectors
	hot := make([]int64, 1+rng.Intn(8)) // a few LBNs shared by many requests
	for i := range hot {
		hot[i] = below(g.Blocks - 128)
	}
	out := make([]device.Request, n)
	for i := range out {
		blocks := 1 + below(64)
		var lbn int64
		switch shape {
		case "uniform":
			lbn = below(g.Blocks - blocks)
		case "duplicates":
			lbn = hot[rng.Intn(len(hot))] + below(2)
		case "cylinder0":
			blocks = 1 + below(8)
			lbn = below(perCyl - blocks)
		case "lastblock":
			lbn = g.Blocks - blocks // ends on the disk's last block
			if rng.Intn(2) == 0 {
				lbn = below(g.Blocks - blocks)
			}
		}
		out[i] = device.Request{Op: device.Read, Block: lbn, Blocks: blocks,
			Stream: rng.Intn(n/4 + 1), Issued: time.Duration(i)}
	}
	return out
}

// TestCLookMatchesArrivalScan drains seeded batches through one reused
// CLook scheduler and through refCLook on twin devices, and requires the
// same completions in the same order — hence the same stream and arrival
// at every pick. Each batch is enqueued in two bursts around a partial
// drain, so the index is rebuilt over removed entries; the head starts
// from a random cylinder, and now and then jumps to another one between
// picks, so sweeps wrap and the head also moves backwards.
func TestCLookMatchesArrivalScan(t *testing.T) {
	sizes := []int{1, 2, 3, 17, 64, radixMin - 1, radixMin, radixMin + 1, 1000, 4096}
	for _, p := range []Params{FutureDisk(), Atlas10K3()} {
		rng := sim.NewRNG(13)
		var s *Scheduler
		for _, shape := range []string{"uniform", "duplicates", "cylinder0", "lastblock"} {
			for _, n := range sizes {
				got, _ := New(p)
				want, _ := New(p)
				if s == nil {
					s = NewScheduler(got, CLook)
				} else {
					s.Rebind(got, CLook)
				}
				ref := &refCLook{dev: want}
				now := time.Duration(0)
				// move services one outside request on both drives, putting
				// the head on a random cylinder behind the scheduler's back.
				move := func() {
					q := device.Request{Block: int64(rng.Uint64n(uint64(got.Geometry().Blocks - 8))), Blocks: 8}
					at := now
					for _, d := range []*Device{got, want} {
						c, err := d.Service(at, q)
						if err != nil {
							t.Fatal(err)
						}
						now = c.Finish
					}
				}
				move()
				picks := 0
				drain := func(count int) {
					for ; count > 0; count-- {
						if rng.Intn(32) == 0 {
							move()
						}
						c, ok, err := s.Dispatch(now)
						if err != nil || !ok {
							t.Fatalf("%s %s n=%d pick %d: ok=%v err=%v", p.Name, shape, n, picks, ok, err)
						}
						w, err := ref.dispatch(now)
						if err != nil {
							t.Fatal(err)
						}
						if c != w {
							t.Fatalf("%s %s n=%d pick %d: got stream %d arrival %d, want stream %d arrival %d",
								p.Name, shape, n, picks, c.Stream, c.Issued, w.Stream, w.Issued)
						}
						now = c.Finish
						picks++
					}
				}
				batch := clookBatch(rng, got, shape, n)
				split := 1 + rng.Intn(n)
				for _, q := range batch[:split] {
					s.Enqueue(q)
				}
				ref.enqueue(batch[:split])
				drain(rng.Intn(split))
				for _, q := range batch[split:] {
					s.Enqueue(q)
				}
				ref.enqueue(batch[split:])
				drain(s.Len())
				if picks != n || len(ref.pending) != 0 {
					t.Fatalf("%s %s n=%d: %d picks, %d reference requests left", p.Name, shape, n, picks, len(ref.pending))
				}
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || SSTF.String() != "sstf" || CLook.String() != "c-look" {
		t.Error("policy names wrong")
	}
}

func TestOnControllerCache(t *testing.T) {
	d, _ := New(FutureDisk())
	if err := d.EnableCache(8*units.MB, 600*units.MBPS); err != nil {
		t.Fatal(err)
	}
	miss, err := d.Service(0, device.Request{Op: device.Read, Block: 5e6, Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Seek elsewhere, then re-read the cached extent.
	if _, err := d.Service(miss.Finish, device.Request{Op: device.Read, Block: 0, Blocks: 8}); err != nil {
		t.Fatal(err)
	}
	hit, err := d.Service(miss.Finish+time.Second, device.Request{Op: device.Read, Block: 5e6, Blocks: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Position != 0 || hit.ServiceTime() >= miss.ServiceTime() {
		t.Errorf("hit pos=%v time=%v vs miss %v", hit.Position, hit.ServiceTime(), miss.ServiceTime())
	}
	if d.Cache().HitRatio() <= 0 {
		t.Error("no hits recorded")
	}
}

package disk

import (
	"testing"
	"time"

	"memstream/internal/device"
	"memstream/internal/sim"
)

// clookRig is one seeded C-LOOK batch at uniform FutureDisk positions and
// the scheduler that dispatches it, warmed so its arrays have grown.
type clookRig struct {
	dev   *Device
	s     *Scheduler
	batch []device.Request
}

func newCLookRig(tb testing.TB, n int) *clookRig {
	tb.Helper()
	d, err := New(FutureDisk())
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(5)
	r := &clookRig{dev: d, s: NewScheduler(d, CLook), batch: make([]device.Request, n)}
	for i := range r.batch {
		lbn := int64(rng.Uint64n(uint64(d.Geometry().Blocks - 64)))
		r.batch[i] = device.Request{Op: device.Read, Block: lbn, Blocks: 64, Stream: i}
	}
	r.run(tb)
	return r
}

// run enqueues the batch on a parked head and dispatches it dry.
func (r *clookRig) run(tb testing.TB) {
	r.dev.Reset()
	for _, q := range r.batch {
		r.s.Enqueue(q)
	}
	var now time.Duration
	for {
		c, ok, err := r.s.Dispatch(now)
		if err != nil {
			tb.Fatal(err)
		}
		if !ok {
			return
		}
		now = c.Finish
	}
}

// BenchmarkCLookBatch64 and BenchmarkCLookBatch4096 time one C-LOOK batch
// — enqueue, index build, every pick and every Device.Service — at the
// small size slices.Sort handles and at the million-stream run's
// per-partition batch.
func BenchmarkCLookBatch64(b *testing.B)   { benchmarkCLookBatch(b, 64) }
func BenchmarkCLookBatch4096(b *testing.B) { benchmarkCLookBatch(b, 4096) }

func benchmarkCLookBatch(b *testing.B, n int) {
	r := newCLookRig(b, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.run(b)
	}
}

// Once warm, a C-LOOK batch allocates nothing, on either sort path.
func TestCLookBatchZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 4096} {
		r := newCLookRig(t, n)
		if a := testing.AllocsPerRun(20, func() { r.run(t) }); a != 0 {
			t.Errorf("%d-request C-LOOK batch allocates %v per batch, want 0", n, a)
		}
	}
}

package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"memstream/internal/sim"
	"memstream/internal/units"
)

func TestMediaClassesMatchPaper(t *testing.T) {
	want := map[string]units.ByteRate{
		"mp3":  10 * units.KBPS,
		"DivX": 100 * units.KBPS,
		"DVD":  1 * units.MBPS,
		"HDTV": 10 * units.MBPS,
	}
	for _, c := range Classes() {
		if c.BitRate != want[c.Name] {
			t.Errorf("%s bit-rate = %v, want %v", c.Name, c.BitRate, want[c.Name])
		}
	}
}

func TestMediaClassSize(t *testing.T) {
	// A 110-minute DVD title at 1MB/s is 6.6GB.
	if got := DVD.Size(); got != 6600*units.MB {
		t.Errorf("DVD size = %v, want 6.6GB", got)
	}
}

func TestXYValidate(t *testing.T) {
	for _, d := range PaperDistributions() {
		if err := d.Validate(); err != nil {
			t.Errorf("%v: %v", d, err)
		}
	}
	for _, d := range []XYDistribution{{0, 50}, {50, 0}, {101, 50}, {50, 101}, {-1, 50}} {
		if err := d.Validate(); err == nil {
			t.Errorf("%v accepted", d)
		}
	}
}

func TestXYString(t *testing.T) {
	if got := (XYDistribution{10, 90}).String(); got != "10:90" {
		t.Errorf("String = %q", got)
	}
}

func TestXYWeightsSumToOne(t *testing.T) {
	for _, d := range PaperDistributions() {
		w := d.Weights(1000)
		var sum float64
		for _, x := range w {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: weights sum to %v", d, sum)
		}
	}
}

func TestXYWeightsSkew(t *testing.T) {
	// 10:90 over 100 titles: top 10 each get 9%, rest get ~0.11%.
	w := (XYDistribution{10, 90}).Weights(100)
	if math.Abs(w[0]-0.09) > 1e-12 {
		t.Errorf("hot weight = %v, want 0.09", w[0])
	}
	if math.Abs(w[99]-0.1/90) > 1e-12 {
		t.Errorf("cold weight = %v, want %v", w[99], 0.1/90)
	}
	if w[9] <= w[10] {
		t.Error("boundary not monotone")
	}
}

func TestXYWeightsUniformAt5050(t *testing.T) {
	w := (XYDistribution{50, 50}).Weights(10)
	for i := 1; i < len(w); i++ {
		if math.Abs(w[i]-w[0]) > 1e-12 {
			t.Fatalf("50:50 weights not uniform: %v", w)
		}
	}
}

func TestXYWeightsEdgeCases(t *testing.T) {
	if w := (XYDistribution{10, 90}).Weights(0); w != nil {
		t.Error("Weights(0) should be nil")
	}
	w := (XYDistribution{1, 99}).Weights(1)
	if len(w) != 1 || math.Abs(w[0]-1) > 1e-12 {
		t.Errorf("single-title weights = %v", w)
	}
}

func TestZipf(t *testing.T) {
	w := Zipf(100, 1)
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Fatal("zipf weights not decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("zipf sum = %v", sum)
	}
	if math.Abs(w[0]/w[1]-2) > 1e-9 {
		t.Errorf("zipf(1) ratio w0/w1 = %v, want 2", w[0]/w[1])
	}
	if Zipf(0, 1) != nil {
		t.Error("Zipf(0) should be nil")
	}
}

func TestNewCatalog(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, err := NewCatalog(50, DVD, d.Weights(50), 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Titles) != 50 {
		t.Fatalf("titles = %d", len(cat.Titles))
	}
	// Titles laid out contiguously without overlap.
	for i := 1; i < len(cat.Titles); i++ {
		prev, cur := cat.Titles[i-1], cat.Titles[i]
		prevBlocks := int64(prev.Size / 512)
		if cur.StartLB != prev.StartLB+prevBlocks {
			t.Fatalf("title %d starts at %d, want %d", i, cur.StartLB, prev.StartLB+prevBlocks)
		}
	}
	if got := cat.TotalSize(); got != 50*DVD.Size() {
		t.Errorf("TotalSize = %v", got)
	}
}

func TestNewCatalogErrors(t *testing.T) {
	if _, err := NewCatalog(0, DVD, nil, 512); err == nil {
		t.Error("empty catalog accepted")
	}
	if _, err := NewCatalog(2, DVD, []float64{1}, 512); err == nil {
		t.Error("weight length mismatch accepted")
	}
	if _, err := NewCatalog(1, DVD, []float64{1}, 0); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestCatalogPickFollowsWeights(t *testing.T) {
	d := XYDistribution{10, 90}
	n := 100
	cat, _ := NewCatalog(n, MP3, d.Weights(n), 512)
	rng := sim.NewRNG(5)
	hot := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if cat.Pick(rng).Rank < 10 {
			hot++
		}
	}
	frac := float64(hot) / draws
	if math.Abs(frac-0.9) > 0.01 {
		t.Errorf("hot fraction = %v, want ≈0.9", frac)
	}
}

// TestPickChiSquared checks the draw distribution against the exact Zipf
// weights at several exponents: with 200k draws over 100 titles the χ²
// statistic should sit far below the df=99, p=0.001 critical value (~149)
// unless Pick is biased.
func TestPickChiSquared(t *testing.T) {
	const n, draws = 100, 200000
	for _, alpha := range []float64{0.5, 0.8, 1.0, 1.2, 1.5} {
		w := Zipf(n, alpha)
		cat, _ := NewCatalog(n, MP3, w, 512)
		rng := sim.NewRNG(7)
		counts := make([]int, n)
		for i := 0; i < draws; i++ {
			counts[cat.Pick(rng).Rank]++
		}
		var chi2 float64
		for i, c := range counts {
			exp := w[i] * draws
			d := float64(c) - exp
			chi2 += d * d / exp
		}
		if chi2 > 149 {
			t.Errorf("alpha=%.1f: chi²=%.1f exceeds the df=99 p=0.001 critical value", alpha, chi2)
		}
	}
}

// TestPickSplitDeterminism: generators seeded from the same RNG.Split
// lineage draw identical populations — the property the shard layer's
// per-partition seeding relies on.
func TestPickSplitDeterminism(t *testing.T) {
	cat, _ := NewCatalog(64, MP3, XYDistribution{X: 10, Y: 90}.Weights(64), 512)
	seq := func() []int {
		rng := sim.NewRNG(99).Split()
		out := make([]int, 4096)
		for i := range out {
			out[i] = cat.Pick(rng).ID
		}
		return out
	}
	if a, b := seq(), seq(); !reflect.DeepEqual(a, b) {
		t.Fatal("draws diverged under identical Split lineage")
	}
}

// TestPickPinnedSequence pins the first 20,000 title IDs Pick draws at
// seed 42 (one decimal ID per line, sha256) across the popularity shapes
// the rigs use plus two edge cases. The digests were recorded from the
// linear subtraction scan Pick ran before the prefix-sum search, so a
// change to the draw that moves any title shows here before it shows in
// the experiment goldens.
func TestPickPinnedSequence(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    []float64
		want string
	}{
		{"xy-10-90-64", XYDistribution{X: 10, Y: 90}.Weights(64),
			"be801bd13b765c46e734a5c0fbae3fa1429f107d07f8a44a8038a1f130bc145c"},
		{"xy-1-99-200", XYDistribution{X: 1, Y: 99}.Weights(200),
			"29844a0b4ff1a92c8e9084a913550ccfdc4ea8f6cddd0fb600a477df89f26d50"},
		{"xy-50-50-100", XYDistribution{X: 50, Y: 50}.Weights(100),
			"26a8fc7f01193214b80b00afc7f532e321720604774c7270dd094b6f7517edd4"},
		{"zipf-1.0-1000", Zipf(1000, 1.0),
			"a508cc7c75fb8e384c8423958574e1d0a76c49ac103f90db8ba480f0f5856808"},
		{"zipf-0.5-64", Zipf(64, 0.5),
			"e85e6f4501e7264375396c83e3377b54836b98537389b2b42753d49c5fb108ac"},
		{"single", []float64{1},
			"4ff729b219deacccbbc43b1b28a895d1c0319254b9b80d4da040c4a4724a7846"},
		{"lopsided", []float64{1e-30, 0.9, 1e-30, 0.1, 1e-300},
			"d3aba5d618ddd3ba5bb18efb56b6a50333232a6b0a2ca0418d7f6fb754d26ed5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cat, _ := NewCatalog(len(tc.w), MP3, tc.w, 512)
			rng := sim.NewRNG(42)
			h := sha256.New()
			for i := 0; i < 20000; i++ {
				fmt.Fprintf(h, "%d\n", cat.Pick(rng).ID)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("draw sequence sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}

// TestDrawRangeLargeCatalogBound guards against a super-linear cost
// hiding behind catalog size: building a 100,000-title Zipf catalog and
// drawing 100,000 streams from it must take well under the 2 s bound
// (milliseconds here, also under the race detector).
func TestDrawRangeLargeCatalogBound(t *testing.T) {
	const n = 100000
	start := time.Now()
	cat, err := NewCatalog(n, MP3, Zipf(n, 1.0), 512)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewGenerator(cat, 1).DrawRange(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("catalog build + %d draws took %v, bound 2s", len(set.Streams), elapsed)
	}
}

func TestTopFractionMatchesEquation11(t *testing.T) {
	// Paper Eq 11 with X:Y popularity: caching p ≤ X of the titles yields
	// h = (p/X)·Y; caching p > X yields h = Y + (p-X)/(100-X)·(100-Y).
	d := XYDistribution{10, 90}
	n := 1000
	cat, _ := NewCatalog(n, MP3, d.Weights(n), 512)
	// p = 5% (< X): h = 5/10*0.9 = 0.45
	if h := cat.TopFraction(0.05); math.Abs(h-0.45) > 1e-9 {
		t.Errorf("h(5%%) = %v, want 0.45", h)
	}
	// p = 10% (= X): h = 0.9
	if h := cat.TopFraction(0.10); math.Abs(h-0.90) > 1e-9 {
		t.Errorf("h(10%%) = %v, want 0.90", h)
	}
	// p = 55%: h = 0.9 + (45/90)*0.1 = 0.95
	if h := cat.TopFraction(0.55); math.Abs(h-0.95) > 1e-9 {
		t.Errorf("h(55%%) = %v, want 0.95", h)
	}
	if h := cat.TopFraction(1); math.Abs(h-1) > 1e-9 {
		t.Errorf("h(100%%) = %v, want 1", h)
	}
	if h := cat.TopFraction(0); h != 0 {
		t.Errorf("h(0) = %v", h)
	}
}

func TestGeneratorDraw(t *testing.T) {
	d := XYDistribution{20, 80}
	cat, _ := NewCatalog(100, DivX, d.Weights(100), 512)
	g := NewGenerator(cat, 1)
	set, err := g.Draw(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Streams) != 500 {
		t.Fatalf("streams = %d", len(set.Streams))
	}
	if set.AvgBitRate() != DivX.BitRate {
		t.Errorf("avg bit-rate = %v", set.AvgBitRate())
	}
	if set.AggregateRate() != units.ByteRate(500*float64(DivX.BitRate)) {
		t.Errorf("aggregate = %v", set.AggregateRate())
	}
	for _, s := range set.Streams {
		if s.Offset < 0 || s.Offset >= s.Title.Size {
			t.Fatalf("offset %v outside title of %v", s.Offset, s.Title.Size)
		}
	}
}

func TestGeneratorDrawErrors(t *testing.T) {
	cat, _ := NewCatalog(10, MP3, Zipf(10, 1), 512)
	g := NewGenerator(cat, 1)
	if _, err := g.Draw(0); err == nil {
		t.Error("Draw(0) accepted")
	}
	if _, err := g.DrawUniform(-1); err == nil {
		t.Error("DrawUniform(-1) accepted")
	}
	if _, err := g.DrawRange(-1, 10); err == nil {
		t.Error("DrawRange(-1, ...) accepted")
	}
}

// TestDrawRangePartitionAware: DrawRange(0, n) is exactly Draw(n), and a
// nonzero firstID shifts only the IDs — titles and offsets stay the
// draws the seed dictates. Partitions built this way have globally unique
// IDs and per-seed-independent populations.
func TestDrawRangePartitionAware(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, _ := NewCatalog(100, DVD, d.Weights(100), 512)
	base, err := NewGenerator(cat, 42).Draw(50)
	if err != nil {
		t.Fatal(err)
	}
	ranged, err := NewGenerator(cat, 42).DrawRange(1000, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Streams {
		b, r := base.Streams[i], ranged.Streams[i]
		if r.ID != 1000+i {
			t.Fatalf("stream %d: ID = %d, want %d", i, r.ID, 1000+i)
		}
		if b.Title.ID != r.Title.ID || b.Offset != r.Offset || b.BitRate != r.BitRate {
			t.Fatalf("stream %d: DrawRange draw differs from Draw: %+v vs %+v", i, r, b)
		}
	}
	zero, err := NewGenerator(cat, 42).DrawRange(0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, base) {
		t.Error("DrawRange(0, n) differs from Draw(n)")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, _ := NewCatalog(100, DVD, d.Weights(100), 512)
	a, _ := NewGenerator(cat, 42).Draw(100)
	b, _ := NewGenerator(cat, 42).Draw(100)
	for i := range a.Streams {
		if a.Streams[i].Title.ID != b.Streams[i].Title.ID {
			t.Fatal("same seed produced different draws")
		}
	}
}

func TestHitCount(t *testing.T) {
	d := XYDistribution{10, 90}
	cat, _ := NewCatalog(100, MP3, d.Weights(100), 512)
	g := NewGenerator(cat, 7)
	set, _ := g.Draw(10000)
	hits := set.HitCount(10)
	frac := float64(hits) / 10000
	if math.Abs(frac-0.9) > 0.02 {
		t.Errorf("cache-prefix hit fraction = %v, want ≈0.9", frac)
	}
	if set.HitCount(0) != 0 {
		t.Error("HitCount(0) != 0")
	}
	if set.HitCount(100) != 10000 {
		t.Error("HitCount(all) != N")
	}
}

func TestVBRTraceAndCushion(t *testing.T) {
	rng := sim.NewRNG(3)
	trace := VBRTrace(rng, 1*units.MBPS, 0.3, 1000)
	if len(trace) != 1000 {
		t.Fatalf("trace length = %d", len(trace))
	}
	var mean float64
	for _, r := range trace {
		if r <= 0 {
			t.Fatal("non-positive VBR rate")
		}
		mean += float64(r)
	}
	mean /= float64(len(trace))
	if math.Abs(mean-1e6) > 0.05e6 {
		t.Errorf("trace mean = %v, want ≈1MB/s", units.ByteRate(mean))
	}
	cushion := CushionFor(trace, time.Second)
	if cushion <= 0 {
		t.Error("VBR trace needs a positive cushion")
	}
	// A CBR "trace" needs no cushion.
	flat := []units.ByteRate{1e6, 1e6, 1e6}
	if c := CushionFor(flat, time.Second); c != 0 {
		t.Errorf("CBR cushion = %v, want 0", c)
	}
	if c := CushionFor(nil, time.Second); c != 0 {
		t.Errorf("empty cushion = %v", c)
	}
}

// Property: TopFraction is monotone nondecreasing in p and bounded by 1.
func TestTopFractionMonotoneProperty(t *testing.T) {
	d := XYDistribution{5, 95}
	cat, _ := NewCatalog(200, MP3, d.Weights(200), 512)
	f := func(a, b uint8) bool {
		pa, pb := float64(a)/255, float64(b)/255
		if pa > pb {
			pa, pb = pb, pa
		}
		ha, hb := cat.TopFraction(pa), cat.TopFraction(pb)
		return ha <= hb+1e-12 && hb <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any strictly skewed X:Y (Y > X; at Y = X the ⌈X%·n⌉
// rounding can leave the hot group marginally under-weighted), weights
// are nonincreasing in rank.
func TestWeightsMonotoneProperty(t *testing.T) {
	f := func(x, y uint8) bool {
		xv, yv := float64(x%98)+1, float64(y%98)+1
		if yv < xv {
			xv, yv = yv, xv
		}
		if yv <= xv {
			yv = xv + 1 // strict skew; covers the ceiling error at n=150
		}
		d := XYDistribution{X: xv, Y: yv}
		w := d.Weights(150)
		for i := 1; i < len(w); i++ {
			if w[i] > w[i-1]+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func benchmarkPick(b *testing.B, n int) {
	cat, err := NewCatalog(n, MP3, Zipf(n, 1.0), 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += cat.Pick(rng).Rank
	}
	_ = sink
}

func BenchmarkPick64(b *testing.B)   { benchmarkPick(b, 64) }
func BenchmarkPick4096(b *testing.B) { benchmarkPick(b, 4096) }

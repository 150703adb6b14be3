package stats

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"rsin/internal/rng"
)

// normal draws a standard normal variate from src by the Marsaglia
// polar method: iid test data for the accumulators.
func normal(src *rng.Source) float64 {
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if got := w.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if got, want := w.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	if err := quick.Check(func(seed uint64, nA, nB uint8) bool {
		src := rng.New(seed)
		var all, a, b Welford
		for i := 0; i < int(nA); i++ {
			x := normal(src)
			all.Add(x)
			a.Add(x)
		}
		for i := 0; i < int(nB); i++ {
			x := normal(src)
			all.Add(x)
			b.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-9 &&
			math.Abs(a.Variance()-all.Variance()) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 3)
	tw.Set(5, 3)
	if got := tw.Finish(10); math.Abs(got-3) > 1e-12 {
		t.Errorf("constant signal mean = %v, want 3", got)
	}
}

func TestTimeWeightedStep(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Set(4, 10) // value 0 over [0,4)
	// value 10 over [4,8)
	if got := tw.Finish(8); math.Abs(got-5) > 1e-12 {
		t.Errorf("step signal mean = %v, want 5", got)
	}
}

func TestTimeWeightedResetForWarmup(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 100) // warmup garbage
	tw.Set(10, 2)
	tw.Reset() // discard warmup, keep current value 2 at t=10
	if got := tw.Finish(20); math.Abs(got-2) > 1e-12 {
		t.Errorf("post-warmup mean = %v, want 2", got)
	}
}

func TestTimeWeightedPanicsOnBackwardsTime(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on backwards time")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrTimeBackwards) {
			t.Errorf("panic value %v does not wrap ErrTimeBackwards", r)
		}
	}()
	var tw TimeWeighted
	tw.Set(5, 1)
	tw.Set(4, 1)
}

func TestCIBounds(t *testing.T) {
	ci := CI{Mean: 10, HalfWide: 2}
	if ci.Lo() != 8 || ci.Hi() != 12 {
		t.Errorf("bounds = [%v, %v], want [8, 12]", ci.Lo(), ci.Hi())
	}
	if !ci.Contains(9) || ci.Contains(13) {
		t.Error("Contains misbehaves")
	}
}

func TestBatchMeansCoverage(t *testing.T) {
	// For iid normal data, a 95% CI should contain the true mean in the
	// vast majority of replications.
	src := rng.New(99)
	hits := 0
	const reps = 200
	for rep := 0; rep < reps; rep++ {
		bm := NewBatchMeans(100)
		for i := 0; i < 3000; i++ {
			bm.Add(5 + normal(src))
		}
		if bm.Interval(0.95).Contains(5) {
			hits++
		}
	}
	if hits < int(0.88*reps) {
		t.Errorf("95%% CI covered true mean only %d/%d times", hits, reps)
	}
}

func TestBatchMeansFewBatches(t *testing.T) {
	bm := NewBatchMeans(10)
	for i := 0; i < 15; i++ {
		bm.Add(1)
	}
	ci := bm.Interval(0.95)
	if !math.IsInf(ci.HalfWide, 1) {
		t.Errorf("single batch should give infinite half width, got %v", ci.HalfWide)
	}
	if bm.Batches() != 1 {
		t.Errorf("Batches = %d, want 1", bm.Batches())
	}
}

func TestTQuantileMonotone(t *testing.T) {
	// Critical values shrink with df and grow with confidence.
	if tQuantile(0.95, 1) <= tQuantile(0.95, 10) {
		t.Error("t quantile should shrink as df grows")
	}
	if tQuantile(0.99, 10) <= tQuantile(0.95, 10) {
		t.Error("t quantile should grow with confidence level")
	}
	if got := tQuantile(0.95, 1000); math.Abs(got-1.96) > 1e-9 {
		t.Errorf("large-df 95%% quantile = %v, want 1.96", got)
	}
}

func TestAccessorsAndFormatting(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean() != 0 {
		t.Error("empty TimeWeighted mean should be 0")
	}
	tw.Set(0, 1)
	tw.Set(4, 1)
	if tw.Duration() != 4 {
		t.Errorf("Duration = %v, want 4", tw.Duration())
	}
	ci := CI{Mean: 1.5, HalfWide: 0.25}
	if s := ci.String(); s != "1.5 ± 0.25" {
		t.Errorf("CI.String() = %q", s)
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"batch size": func() { NewBatchMeans(0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		})
	}
}

func TestTQuantileLevels(t *testing.T) {
	// 90% and 99% branches for small and large df.
	if tQuantile(0.90, 5) >= tQuantile(0.99, 5) {
		t.Error("90% quantile should be below 99%")
	}
	if got := tQuantile(0.90, 500); got != 1.645 {
		t.Errorf("large-df 90%% = %v", got)
	}
	if got := tQuantile(0.99, 500); got != 2.576 {
		t.Errorf("large-df 99%% = %v", got)
	}
	if !math.IsInf(tQuantile(0.95, 0), 1) {
		t.Error("df=0 should be +Inf")
	}
}

func TestWelfordVarianceNonNegativeProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		src := rng.New(seed)
		var w Welford
		for i := 0; i < int(n); i++ {
			w.Add(normal(src) * 1000)
		}
		return w.Variance() >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLog2HistogramBucketing(t *testing.T) {
	h := NewLog2Histogram(-2, 3) // buckets [0.25,0.5) [0.5,1) [1,2) [2,4) [4,8)
	if h.NumBuckets() != 5 {
		t.Fatalf("NumBuckets = %d, want 5", h.NumBuckets())
	}
	for i, x := range []float64{0.25, 0.5, 1, 2, 4} {
		h.Add(x) // each exact power of two opens bucket i
		if h.Bucket(i) != 1 {
			t.Errorf("bucket %d = %d after adding %v, want 1", i, h.Bucket(i), x)
		}
	}
	h.Add(0)    // exact zero of an immediately-granted request
	h.Add(0.1)  // below 2^minExp
	h.Add(8)    // at 2^maxExp
	h.Add(1000) // far above
	if h.Under() != 2 || h.Over() != 2 {
		t.Errorf("Under/Over = %d/%d, want 2/2", h.Under(), h.Over())
	}
	if h.N() != 9 {
		t.Errorf("N = %d, want 9", h.N())
	}
	lo, hi := h.BucketBounds(2)
	if lo != 1 || hi != 2 {
		t.Errorf("BucketBounds(2) = [%v,%v), want [1,2)", lo, hi)
	}
}

func TestLog2HistogramMeanIncludesTails(t *testing.T) {
	h := NewLog2Histogram(-2, 3)
	h.Add(0)   // underflow
	h.Add(100) // overflow
	h.Add(2)
	if got := h.Mean(); math.Abs(got-34) > 1e-12 {
		t.Errorf("Mean = %v, want 34", got)
	}
	if got := h.Sum(); math.Abs(got-102) > 1e-12 {
		t.Errorf("Sum = %v, want 102", got)
	}
}

func TestLog2HistogramQuantile(t *testing.T) {
	var empty Log2Histogram
	if (&empty).Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	h := NewLog2Histogram(-2, 3)
	for i := 0; i < 10; i++ {
		h.Add(0) // underflow mass → quantile attributes to zero
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("all-underflow median = %v, want 0", got)
	}
	h2 := NewLog2Histogram(-2, 3)
	for i := 0; i < 10; i++ {
		h2.Add(3) // all in [2,4)
	}
	want := math.Sqrt(2 * 4) // geometric bucket midpoint
	if got := h2.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Errorf("median = %v, want %v", got, want)
	}
	h3 := NewLog2Histogram(-2, 3)
	h3.Add(999) // all overflow → upper edge 2^maxExp
	if got := h3.Quantile(0.9); got != 8 {
		t.Errorf("all-overflow quantile = %v, want 8", got)
	}
}

func TestLog2HistogramMerge(t *testing.T) {
	a := NewLog2Histogram(-2, 3)
	b := NewLog2Histogram(-2, 3)
	a.Add(1)
	a.Add(0)
	b.Add(1)
	b.Add(100)
	a.Merge(b)
	if a.N() != 4 || a.Bucket(2) != 2 || a.Under() != 1 || a.Over() != 1 {
		t.Errorf("merged N=%d bucket2=%d under=%d over=%d, want 4/2/1/1",
			a.N(), a.Bucket(2), a.Under(), a.Over())
	}
	if got := a.Sum(); math.Abs(got-102) > 1e-12 {
		t.Errorf("merged Sum = %v, want 102", got)
	}
	c := NewLog2Histogram(-1, 3)
	defer func() {
		if recover() == nil {
			t.Error("expected panic merging mismatched layouts")
		}
	}()
	a.Merge(c)
}

func TestLog2HistogramConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewLog2Histogram(3, 3)
}

// TestBatchMeansReserve pins Reserve's contract: results are identical
// with and without it, existing batches survive it, under-reserving is
// harmless, and Adds within the reserved capacity never allocate —
// the property the simulation kernel's zero-allocation steady state
// rests on.
func TestBatchMeansReserve(t *testing.T) {
	src := rng.New(17)
	plain := NewBatchMeans(10)
	reserved := NewBatchMeans(10)
	reserved.Reserve(50)
	var obs []float64
	for i := 0; i < 500; i++ {
		obs = append(obs, src.Exp(1))
	}
	// Reserve mid-stream too: existing batches must survive.
	for i, x := range obs {
		plain.Add(x)
		reserved.Add(x)
		if i == 99 {
			reserved.Reserve(40) // under cap: no-op
			reserved.Reserve(50) // at cap: no-op
		}
	}
	if plain.Batches() != reserved.Batches() {
		t.Fatalf("batch counts diverged: %d vs %d", plain.Batches(), reserved.Batches())
	}
	pi, ri := plain.Interval(0.95), reserved.Interval(0.95)
	if pi != ri {
		t.Errorf("intervals diverged: %v vs %v", pi, ri)
	}

	b := NewBatchMeans(4)
	b.Reserve(100)
	if avg := testing.AllocsPerRun(100, func() {
		b.Add(1) // 100 runs × 1 obs = 25 batches, within the reserve
	}); avg != 0 {
		t.Errorf("Add within reserved capacity allocates %g allocs/run, want 0", avg)
	}
}

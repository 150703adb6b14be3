package stats

import (
	"math"
	"testing"

	"rsin/internal/rng"
)

// TestTimeWeightedFinishEmpty pins the empty-accumulator fix: Finish on
// a never-started accumulator must be a no-op returning 0. Pre-fix code
// called Set(t, 0), silently marking the window started — so a later
// Set accrued area from a time the variable was never observed.
func TestTimeWeightedFinishEmpty(t *testing.T) {
	var tw TimeWeighted
	if got := tw.Finish(100); got != 0 {
		t.Errorf("Finish on empty accumulator = %v, want 0", got)
	}
	if tw.Duration() != 0 {
		t.Errorf("Finish on empty accumulator opened a window of %v", tw.Duration())
	}
	// The window must still be startable afterwards, anchored at the
	// first real observation — not at the Finish time.
	tw.Set(200, 7)
	if got := tw.Finish(210); math.Abs(got-7) > 1e-12 {
		t.Errorf("mean after late start = %v, want 7 (window must start at first Set)", got)
	}
	if got := tw.Duration(); math.Abs(got-10) > 1e-12 {
		t.Errorf("Duration = %v, want 10", got)
	}
}

// TestTimeWeightedMergeStitch: merging two closed windows must give the
// duration-weighted mean, with Duration summing the two windows.
func TestTimeWeightedMergeStitch(t *testing.T) {
	var a, b TimeWeighted
	a.Set(0, 2)
	a.Finish(10) // value 2 over 10 time units
	b.Set(100, 6)
	b.Finish(130) // value 6 over 30 time units
	a.Merge(&b)
	if got, want := a.Mean(), (2*10+6*30)/40.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("stitched Mean = %v, want %v", got, want)
	}
	if got := a.Duration(); math.Abs(got-40) > 1e-12 {
		t.Errorf("stitched Duration = %v, want 40", got)
	}
}

func TestTimeWeightedMergeEmptySides(t *testing.T) {
	var a, b TimeWeighted
	a.Set(0, 3)
	a.Finish(5)
	before := a
	a.Merge(&b) // empty rhs: no-op
	if a != before {
		t.Error("merging an empty accumulator changed the receiver")
	}
	var c TimeWeighted
	c.Merge(&a) // empty lhs: adopt rhs
	if c.Mean() != a.Mean() || c.Duration() != a.Duration() {
		t.Error("merging into an empty accumulator did not adopt the argument")
	}
}

// TestBatchMeansMergeExactOnBoundary: when both accumulators sit on a
// batch boundary (the shard orchestrator's whole-batch quota invariant),
// Merge is an exact concatenation — the merged interval equals the one a
// single stream would produce from the same batch means.
func TestBatchMeansMergeExactOnBoundary(t *testing.T) {
	src := rng.New(5)
	single := NewBatchMeans(25)
	a := NewBatchMeans(25)
	b := NewBatchMeans(25)
	for i := 0; i < 200; i++ { // 8 whole batches
		x := src.Exp(1)
		single.Add(x)
		if i < 100 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Batches() != single.Batches() {
		t.Fatalf("merged Batches = %d, want %d", a.Batches(), single.Batches())
	}
	mi, si := a.Interval(0.95), single.Interval(0.95)
	if math.Float64bits(mi.Mean) != math.Float64bits(si.Mean) ||
		math.Float64bits(mi.HalfWide) != math.Float64bits(si.HalfWide) {
		t.Errorf("merged interval %v != single-stream interval %v (must be bit-exact on whole batches)", mi, si)
	}
}

func TestBatchMeansMergePoolsPartialBatches(t *testing.T) {
	a := NewBatchMeans(10)
	b := NewBatchMeans(10)
	for i := 0; i < 7; i++ {
		a.Add(1)
	}
	for i := 0; i < 5; i++ {
		b.Add(2)
	}
	a.Merge(b) // 7+5 = 12 pooled partial obs → one completed batch of 10
	if a.Batches() != 1 {
		t.Errorf("Batches = %d, want 1 (pooled partials close a batch)", a.Batches())
	}
	if a.BatchSize() != 10 {
		t.Errorf("BatchSize = %d, want 10", a.BatchSize())
	}
}

func TestBatchMeansMergeSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic merging different batch sizes")
		}
	}()
	NewBatchMeans(10).Merge(NewBatchMeans(20))
}

// shardStreams builds k Welford accumulators from decorrelated streams,
// plus a single-stream accumulator fed the same observations in shard
// order — the reference the merged result is compared against.
func shardStreams(k, perShard int) (shards []Welford, single Welford) {
	shards = make([]Welford, k)
	for s := 0; s < k; s++ {
		src := rng.New(uint64(s)*0x9e3779b97f4a7c15 + 1)
		for i := 0; i < perShard; i++ {
			x := src.Exp(1)
			shards[s].Add(x)
			single.Add(x)
		}
	}
	return shards, single
}

// TestWelfordMergeAscendingOrderReproducible is the canonical-order
// property behind internal/shard's merge contract: folding per-shard
// accumulators in ascending shard order is bit-for-bit reproducible
// across repetitions, and agrees with a single-stream Add over the same
// observations to within documented floating-point tolerance (1e-9
// relative — the same tolerance TestWelfordMergeMatchesSequential
// documents for the two-way merge).
func TestWelfordMergeAscendingOrderReproducible(t *testing.T) {
	const k, perShard = 8, 500
	fold := func() Welford {
		shards, _ := shardStreams(k, perShard)
		acc := shards[0]
		for s := 1; s < k; s++ {
			acc.Merge(&shards[s])
		}
		return acc
	}
	first := fold()
	for rep := 0; rep < 3; rep++ {
		if again := fold(); math.Float64bits(again.Mean()) != math.Float64bits(first.Mean()) ||
			math.Float64bits(again.Variance()) != math.Float64bits(first.Variance()) {
			t.Fatalf("ascending fold not reproducible: rep %d gave %v/%v, first gave %v/%v",
				rep, again.Mean(), again.Variance(), first.Mean(), first.Variance())
		}
	}
	_, single := shardStreams(k, perShard)
	if first.N() != single.N() {
		t.Fatalf("merged N = %d, want %d", first.N(), single.N())
	}
	if rel := math.Abs(first.Mean()-single.Mean()) / math.Abs(single.Mean()); rel > 1e-9 {
		t.Errorf("merged mean off by relative %g (> 1e-9) vs single stream", rel)
	}
	if rel := math.Abs(first.Variance()-single.Variance()) / single.Variance(); rel > 1e-9 {
		t.Errorf("merged variance off by relative %g (> 1e-9) vs single stream", rel)
	}
}

// TestWelfordMergeOrderChangesBits documents WHY the shard merge fixes
// canonical ascending order: floating-point merge is order-sensitive, so
// folding the same shard accumulators in a different order produces a
// result that differs in the low bits. If merge order were not part of
// the contract, sharded output could not be byte-identical across
// worker counts.
func TestWelfordMergeOrderChangesBits(t *testing.T) {
	const k, perShard = 8, 500
	shards, _ := shardStreams(k, perShard)
	foldOrder := func(order []int) Welford {
		acc := shards[order[0]]
		for _, s := range order[1:] {
			acc.Merge(&shards[s])
		}
		return acc
	}
	asc := foldOrder([]int{0, 1, 2, 3, 4, 5, 6, 7})
	// Scan reversed and rotated orders for one that flips bits; a single
	// fixed alternative could coincidentally round identically.
	orders := [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{1, 2, 3, 4, 5, 6, 7, 0},
		{4, 5, 6, 7, 0, 1, 2, 3},
		{0, 2, 4, 6, 1, 3, 5, 7},
	}
	for _, ord := range orders {
		alt := foldOrder(ord)
		if math.Float64bits(alt.Mean()) != math.Float64bits(asc.Mean()) ||
			math.Float64bits(alt.Variance()) != math.Float64bits(asc.Variance()) {
			return // order-sensitivity demonstrated
		}
	}
	t.Skip("all tested merge orders rounded identically on this data; order-sensitivity not demonstrable here")
}

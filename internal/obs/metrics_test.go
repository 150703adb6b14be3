package obs

import (
	"errors"
	"math"
	"testing"
)

// mustPanicNonFinite runs f and requires it to panic with an error
// wrapping ErrNonFiniteMetric (the house invalid-update sentinel).
func mustPanicNonFinite(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic", name)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrNonFiniteMetric) {
			t.Fatalf("%s: panic %v does not wrap ErrNonFiniteMetric", name, r)
		}
	}()
	f()
}

func TestCounterRejectsNegativeAdd(t *testing.T) {
	var c Counter
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
	mustPanicNonFinite(t, "Counter.Add(-1)", func() { c.Add(-1) })
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() after rejected Add = %d, want 4", got)
	}
	c.Add(0) // zero is a legal no-op delta
	if got := c.Value(); got != 4 {
		t.Fatalf("Value() after Add(0) = %d, want 4", got)
	}
}

func TestGaugeZeroValueAddContract(t *testing.T) {
	// An Add before any Set shifts off an implicit 0: the two gauges
	// below must be indistinguishable.
	var byAdd, bySet Gauge
	byAdd.Add(1, 3)
	bySet.Set(1, 3)
	byAdd.Add(2, -1)
	bySet.Set(2, 2)
	if byAdd.Last() != bySet.Last() {
		t.Fatalf("Last: Add path %g, Set path %g", byAdd.Last(), bySet.Last())
	}
	if am, sm := byAdd.meanAt(4), bySet.meanAt(4); am != sm {
		t.Fatalf("meanAt(4): Add path %g, Set path %g", am, sm)
	}
	if got := byAdd.meanAt(4); got != 7.0/3.0 {
		// value 3 over [1,2), value 2 over [2,4): (3·1 + 2·2) / 3.
		t.Fatalf("meanAt(4) = %g, want %g", got, 7.0/3.0)
	}
}

func TestGaugeRejectsNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		v := v
		mustPanicNonFinite(t, "Set", func() {
			var g Gauge
			g.Set(1, v)
		})
		mustPanicNonFinite(t, "Add", func() {
			var g Gauge
			g.Set(0, 1)
			g.Add(1, v)
		})
	}
	// A rejected update must not disturb the accumulator.
	var g Gauge
	g.Set(0, 2)
	func() {
		defer func() { recover() }()
		g.Add(1, math.NaN())
	}()
	if g.Last() != 2 {
		t.Fatalf("Last after rejected Add = %g, want 2", g.Last())
	}
	if got := g.meanAt(2); got != 2 {
		t.Fatalf("meanAt(2) after rejected Add = %g, want 2", got)
	}
}

package sched

import (
	"testing"
	"testing/quick"

	"rsin/internal/omega"
	"rsin/internal/rng"
)

// randomScenario builds an 8×8 network with a random availability
// pattern, optional random pre-existing circuits, and random request
// sets. It returns the network plus the request/destination lists.
func randomScenario(src *rng.Source, wiring omega.Wiring, circuits int) (*omega.Omega, []int, []int) {
	o := omega.New(8, 1, omega.WithWiring(wiring))
	var dsts []int
	for j := 0; j < 8; j++ {
		if src.Intn(2) == 0 {
			o.SetResourceAvailability(j, 0)
		} else {
			dsts = append(dsts, j)
		}
	}
	for k := 0; k < circuits; k++ {
		o.AcquireTag(src.Intn(8), src.Intn(8))
	}
	var pids []int
	for p := 0; p < 8; p++ {
		if src.Intn(2) == 0 {
			pids = append(pids, p)
		}
	}
	// Remaining eligible destinations only.
	dsts = dsts[:0]
	for j := 0; j < 8; j++ {
		if o.PortEligible(j) {
			dsts = append(dsts, j)
		}
	}
	return o, pids, dsts
}

// TestOptimalMatchesExhaustive: the polynomial max-flow allocator must
// equal the exponential enumeration on random instances, with and
// without pre-existing circuits and on both wirings.
func TestOptimalMatchesExhaustive(t *testing.T) {
	for _, wiring := range []omega.Wiring{omega.OmegaWiring, omega.CubeWiring} {
		for _, circuits := range []int{0, 2} {
			if err := quick.Check(func(seed uint64) bool {
				src := rng.New(seed)
				o, pids, dsts := randomScenario(src, wiring, circuits)
				flow := OptimalAllocation(o, pids, dsts)
				brute := MaxAllocation(o, pids, dsts)
				return flow == brute
			}, &quick.Config{MaxCount: 150}); err != nil {
				t.Errorf("wiring %v, circuits %d: %v", wiring, circuits, err)
			}
		}
	}
}

// TestOptimalSectionIIExample: the Section II scenario has an optimal
// allocation of 3.
func TestOptimalSectionIIExample(t *testing.T) {
	o := omega.New(8, 1)
	for j := 3; j < 8; j++ {
		o.SetResourceAvailability(j, 0)
	}
	if got := OptimalAllocation(o, []int{0, 1, 2}, []int{0, 1, 2}); got != 3 {
		t.Errorf("OptimalAllocation = %d, want 3", got)
	}
}

// TestDistributedWithinOneOfOptimal: sequential distributed scheduling
// with full backtracking commits only successful circuits, so it is a
// maximal (not necessarily maximum) allocation; on these instance sizes
// it stays within one of the max-flow optimum.
func TestDistributedWithinOneOfOptimal(t *testing.T) {
	src := rng.New(2024)
	worstGap := 0
	for trial := 0; trial < 300; trial++ {
		o, pids, dsts := randomScenario(src, omega.OmegaWiring, 0)
		opt := OptimalAllocation(o, pids, dsts)
		got := 0
		for _, pid := range pids {
			if _, ok := o.Acquire(pid); ok {
				got++
			}
		}
		if got > opt {
			t.Fatalf("distributed %d exceeds optimum %d", got, opt)
		}
		if gap := opt - got; gap > worstGap {
			worstGap = gap
		}
	}
	if worstGap > 1 {
		t.Errorf("worst distributed-vs-optimal gap = %d, want ≤ 1", worstGap)
	}
}

func TestOptimalEmptyInputs(t *testing.T) {
	o := omega.New(8, 1)
	if got := OptimalAllocation(o, nil, []int{0, 1}); got != 0 {
		t.Errorf("no requests should allocate 0, got %d", got)
	}
	if got := OptimalAllocation(o, []int{0, 1}, nil); got != 0 {
		t.Errorf("no destinations should allocate 0, got %d", got)
	}
}

func TestOptimalRespectsOccupiedWires(t *testing.T) {
	o := omega.New(8, 1)
	// Only resource 0 free; occupy the network heavily around it.
	for j := 1; j < 8; j++ {
		o.SetResourceAvailability(j, 0)
	}
	g, ok := o.Acquire(0)
	if !ok || g.Port != 0 {
		t.Fatal("setup acquire failed")
	}
	// Port 0 now ineligible (busy bus + no free resource).
	if got := OptimalAllocation(o, []int{1, 2}, []int{0}); got != 0 {
		t.Errorf("allocation through a busy port = %d, want 0", got)
	}
}

func BenchmarkOptimalVsExhaustive(b *testing.B) {
	src := rng.New(5)
	o, pids, dsts := randomScenario(src, omega.OmegaWiring, 0)
	b.Run("max-flow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OptimalAllocation(o, pids, dsts)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MaxAllocation(o, pids, dsts)
		}
	})
}

// MaxAllocation exhaustively searches for the maximum number of
// (processor, output-port) pairs that can be routed simultaneously on
// an idle Omega network of the given size, with requesting processors
// pids and free ports dsts — the centralized enumeration the paper
// describes as requiring up to (x choose y)·y! trials. Exponential;
// intended for small networks. It is the test oracle that
// OptimalAllocation's max-flow answer is checked against.
func MaxAllocation(n *omega.Omega, pids, dsts []int) int {
	best := 0
	used := make([]bool, len(dsts))
	var rec func(i, granted int)
	rec = func(i, granted int) {
		remaining := len(pids) - i
		if granted+remaining <= best {
			return // prune: cannot beat best
		}
		if i == len(pids) {
			if granted > best {
				best = granted
			}
			return
		}
		// Option: leave this processor unallocated.
		rec(i+1, granted)
		for di, d := range dsts {
			if used[di] {
				continue
			}
			if g, ok := n.AcquireTag(pids[i], d); ok {
				used[di] = true
				rec(i+1, granted+1)
				n.ReleasePath(g)
				n.ReleaseResource(g)
				used[di] = false
			}
		}
	}
	rec(0, 0)
	return best
}

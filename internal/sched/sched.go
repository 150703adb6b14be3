// Package sched implements the centralized scheduling baselines the
// paper compares its distributed approach against:
//
//   - PriorityCircuit: Foster's associative priority circuit, which
//     finds the first free resource in O(log₂ m) gate delays
//     (paper's reference [34]); built gate-for-gate on internal/logic
//     so the depth claim is checked structurally.
//   - RippleSelector: the tree/daisy-chain hardware allocator of the
//     paper's reference [25], with O(m) selection delay.
//   - CentralScheduler: a sequential scheduler front-ending a network:
//     requests are served one at a time, each costing a resource-search
//     plus an O(log₂(p·m)) crosspoint setup; its cumulative cost
//     reproduces the paper's O(p·log₂ m) bound for servicing p requests
//     versus the distributed network's O(log₂ N) independent-of-p cost.
//   - OptimalAllocation (optimal.go): the polynomial max-flow optimal
//     mapping on an Omega network (the paper's reference [35]). The
//     exhaustive enumeration of (x choose y)·y! mappings it replaces
//     is kept in the tests as its oracle.
package sched

import (
	"fmt"
	"math"
	"math/bits"

	"rsin/internal/logic"
)

// PriorityCircuit is a gate-level first-free-resource finder with
// logarithmic depth: a parallel-prefix OR computes, for every position,
// whether any earlier position is free; position i wins iff it is free
// and no earlier one is.
type PriorityCircuit struct {
	m       int
	c       *logic.Circuit
	freeIn  []logic.Node
	winner  []logic.Node
	anyFree logic.Node
}

// NewPriorityCircuit builds the circuit for m resources (m ≥ 1).
func NewPriorityCircuit(m int) *PriorityCircuit {
	if m <= 0 {
		panic("sched: priority circuit needs m ≥ 1")
	}
	c := logic.New()
	pc := &PriorityCircuit{m: m, c: c}
	pc.freeIn = make([]logic.Node, m)
	for i := range pc.freeIn {
		pc.freeIn[i] = c.Input()
	}
	// Kogge–Stone parallel-prefix OR: after the sweep, prefix[i] is the
	// OR of free[0..i].
	prefix := append([]logic.Node(nil), pc.freeIn...)
	for d := 1; d < m; d *= 2 {
		next := append([]logic.Node(nil), prefix...)
		for i := d; i < m; i++ {
			next[i] = c.Gate(logic.OpOr, prefix[i], prefix[i-d])
		}
		prefix = next
	}
	pc.anyFree = prefix[m-1]
	pc.winner = make([]logic.Node, m)
	pc.winner[0] = pc.freeIn[0]
	for i := 1; i < m; i++ {
		notBefore := c.Gate(logic.OpNot, prefix[i-1])
		pc.winner[i] = c.Gate(logic.OpAnd, pc.freeIn[i], notBefore)
	}
	return pc
}

// Select returns the index of the first free resource, whether any was
// free, and the circuit's settle time in gate delays.
func (pc *PriorityCircuit) Select(free []bool) (idx int, ok bool, delay int) {
	if len(free) != pc.m {
		panic("sched: free vector length mismatch")
	}
	in := make(map[logic.Node]bool, pc.m)
	for i, n := range pc.freeIn {
		in[n] = free[i]
	}
	vals, times := pc.c.Eval(in, nil)
	idx, ok = -1, vals[pc.anyFree]
	for i, w := range pc.winner {
		if t := times[w]; t > delay {
			delay = t
		}
		if vals[w] && idx == -1 {
			idx = i
		}
	}
	if t := times[pc.anyFree]; t > delay {
		delay = t
	}
	return idx, ok, delay
}

// Depth returns the circuit's worst-case structural depth bound,
// 2·⌈log₂ m⌉ + 2 gate delays (prefix network plus the win gates).
func (pc *PriorityCircuit) Depth() int {
	if pc.m == 1 {
		return 1
	}
	return 2*bits.Len(uint(pc.m-1)) + 2
}

// RippleSelector models the daisy-chained allocator of the paper's
// reference [25]: the free/busy status ripples through one cell per
// resource, so the selection delay is proportional to the index of the
// winning resource — O(m) in the worst case.
type RippleSelector struct {
	m int
}

// NewRippleSelector returns a selector over m resources.
func NewRippleSelector(m int) *RippleSelector {
	if m <= 0 {
		panic("sched: ripple selector needs m ≥ 1")
	}
	return &RippleSelector{m: m}
}

// Select returns the first free index, whether any was free, and the
// ripple delay (cells traversed).
func (rs *RippleSelector) Select(free []bool) (idx int, ok bool, delay int) {
	if len(free) != rs.m {
		panic("sched: free vector length mismatch")
	}
	for i, f := range free {
		if f {
			return i, true, i + 1
		}
	}
	return -1, false, rs.m
}

// Selector is a resource-search strategy with a hardware delay model.
type Selector interface {
	Select(free []bool) (idx int, ok bool, delay int)
}

// CentralScheduler serves resource requests sequentially: each request
// runs one Select over the free vector plus a crosspoint setup of
// ⌈log₂(p·m)⌉ delay units (decode the switch location), the cost model
// of Section IV's comparison. It accumulates the total delay-units
// spent, demonstrating the O(p·log₂ m) sequential bottleneck.
type CentralScheduler struct {
	p, m     int
	free     []bool
	sel      Selector
	TotalOps int64 // accumulated delay units
	Served   int64 // granted requests
}

// NewCentralScheduler returns a scheduler for p processors and m
// resources using the given selector.
func NewCentralScheduler(p, m int, sel Selector) *CentralScheduler {
	if p <= 0 || m <= 0 {
		panic("sched: invalid scheduler shape")
	}
	free := make([]bool, m)
	for i := range free {
		free[i] = true
	}
	return &CentralScheduler{p: p, m: m, free: free, sel: sel}
}

// SetupCost returns the crosspoint-decode cost ⌈log₂(p·m)⌉.
func (cs *CentralScheduler) SetupCost() int {
	return bits.Len(uint(cs.p*cs.m - 1))
}

// Request serves one request: search for a free resource and, if found,
// allocate it. The scheduler is strictly sequential, so the cost of a
// batch is the sum of per-request costs.
func (cs *CentralScheduler) Request() (idx int, ok bool) {
	i, ok, d := cs.sel.Select(cs.free)
	cs.TotalOps += int64(d)
	if !ok {
		return -1, false
	}
	cs.TotalOps += int64(cs.SetupCost())
	cs.free[i] = false
	cs.Served++
	return i, true
}

// Release frees resource idx.
func (cs *CentralScheduler) Release(idx int) {
	if idx < 0 || idx >= cs.m || cs.free[idx] {
		panic(fmt.Sprintf("sched: bad release of %d", idx))
	}
	cs.free[idx] = true
}

// MappingTrials returns the paper's bound on the number of ordered
// mappings a centralized exhaustive scheduler may need to examine for x
// requests and y free resources: C(x,y)·y! when x ≥ y, C(y,x)·x!
// otherwise.
func MappingTrials(x, y int) float64 {
	if x < y {
		x, y = y, x
	}
	// C(x,y) · y!
	c := 1.0
	for i := 0; i < y; i++ {
		c *= float64(x-i) / float64(i+1)
	}
	f := 1.0
	for i := 2; i <= y; i++ {
		f *= float64(i)
	}
	return c * f
}

// DistributedOverhead returns the paper's worst-case per-stage-count
// cost of the distributed algorithm for an N-port network with r×r
// boxes: O(r·log₂ r) work per stage across ⌈log₂ N⌉ stages, independent
// of the number of requesting processors.
func DistributedOverhead(nPorts, boxRadix int) float64 {
	if nPorts < 2 {
		return 1
	}
	stages := math.Ceil(math.Log2(float64(nPorts)))
	perStage := float64(boxRadix) * math.Max(1, math.Log2(float64(boxRadix)))
	return stages * perStage
}

// CentralizedOverhead returns the paper's cost of servicing N requests
// through a centralized scheduler on a blocking network: O(log₂ N) per
// attempt, O(N) attempts per request due to blocking, N requests —
// O(N²·log₂ N) in total.
func CentralizedOverhead(nRequests int) float64 {
	n := float64(nRequests)
	if n < 2 {
		return 1
	}
	return n * n * math.Log2(n)
}

package core_test

import (
	"fmt"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/omega"
)

// plainNet is a Network that does not implement AvailabilityHinter.
type plainNet struct{ granted bool }

func (n *plainNet) Acquire(pid int) (core.Grant, bool) {
	if n.granted {
		return core.Grant{}, false
	}
	n.granted = true
	return core.Grant{Processor: pid}, true
}
func (n *plainNet) ReleasePath(core.Grant)     {}
func (n *plainNet) ReleaseResource(core.Grant) {}
func (n *plainNet) Processors() int            { return 2 }
func (n *plainNet) Ports() int                 { return 1 }
func (n *plainNet) TotalResources() int        { return 1 }
func (n *plainNet) Name() string               { return "plain" }

// TestPartitionedAvailabilityHint checks the per-partition delegation:
// the hint consults only pid's own sub-network, and its telemetry
// accounting lands on that sub-network exactly as a failed Acquire
// would.
func TestPartitionedAvailabilityHint(t *testing.T) {
	mk := func() *core.Partitioned {
		return core.NewPartitioned([]core.Network{bus.New(2, 1), bus.New(2, 1)})
	}
	a, b := mk(), mk()
	// Saturate partition 0 (processors 0–1) on both systems.
	a.Acquire(0)
	b.Acquire(0)
	if _, ok := a.Acquire(1); ok {
		t.Fatal("acquire on a saturated partition succeeded")
	}
	if !b.AcquireWouldFail(1) {
		t.Fatal("hint said a saturated partition could grant")
	}
	if a.Telemetry() != b.Telemetry() {
		t.Errorf("partitioned telemetry diverged:\nacquire %+v\nhint    %+v", a.Telemetry(), b.Telemetry())
	}
	// Partition 1 (processors 2–3) is untouched and must stay hintable.
	if b.AcquireWouldFail(2) {
		t.Error("hint condemned an idle partition")
	}

	// A partition whose sub-network has no hint answers false: the
	// engine falls back to the real Acquire.
	mixed := core.NewPartitioned([]core.Network{&plainNet{granted: true}})
	if mixed.AcquireWouldFail(0) {
		t.Error("hint-less sub-network reported a certain failure")
	}
}

// counters renders a network's Telemetry and DetailCounters, the two
// outputs a hint's accounting must match.
func counters(n core.Network) string {
	var tel core.Telemetry
	if ts, ok := n.(core.TelemetrySource); ok {
		tel = ts.Telemetry()
	}
	var det []core.NamedCounter
	if ds, ok := n.(core.DetailSource); ok {
		det = ds.DetailCounters()
	}
	return fmt.Sprintf("%+v %+v", tel, det)
}

// hintedNet is a network with a block hint.
type hintedNet interface {
	core.Network
	core.BlockHinter
}

// TestBlockHinterContract pins the core.BlockHinter contract on every
// network that implements it. In a hopeless state, AcquireWouldFailN
// (pid, n) must change Telemetry and DetailCounters exactly as n calls
// to AcquireWouldFail(pid) do on a twin, and n = 0 must change nothing.
// In a live state it must answer false and change nothing. HintSpan
// must name the processors that share the answer.
func TestBlockHinterContract(t *testing.T) {
	cases := []struct {
		name  string
		mk    func() hintedNet
		setup func(core.Network) // drives the network into a hopeless state for pid
		pid   int
		span  int
	}{
		{"SBUS/path-block", func() hintedNet { return bus.New(4, 2) },
			func(n core.Network) { n.Acquire(0) }, 3, 4},
		{"SBUS/resource-block", func() hintedNet { return bus.New(4, 1) },
			func(n core.Network) { g, _ := n.Acquire(0); n.ReleasePath(g) }, 2, 4},
		{"XBAR/path-block", func() hintedNet { return crossbar.New(4, 1, 2) },
			func(n core.Network) { n.Acquire(0) }, 1, 4},
		{"XBAR/resource-block", func() hintedNet { return crossbar.New(4, 2, 1) },
			func(n core.Network) {
				for pid := 0; pid < 2; pid++ {
					g, _ := n.Acquire(pid)
					n.ReleasePath(g)
				}
			}, 3, 4},
		{"OMEGA/resource-block", func() hintedNet { return omega.New(4, 1) },
			func(n core.Network) {
				for pid := 0; pid < 4; pid++ {
					n.Acquire(pid)
				}
			}, 2, 4},
		{"PART/bus+xbar", func() hintedNet {
			return core.NewPartitioned([]core.Network{bus.New(2, 1), crossbar.New(2, 1, 1)})
		}, func(n core.Network) { n.Acquire(2) }, 3, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.mk().HintSpan(); got != c.span {
				t.Errorf("HintSpan = %d, want %d", got, c.span)
			}
			// Live: a fresh network answers false and stays silent.
			fresh := c.mk()
			before := counters(fresh)
			if fresh.AcquireWouldFailN(c.pid, 3) {
				t.Fatal("hint said a fresh network would fail")
			}
			if counters(fresh) != before {
				t.Errorf("false answer touched counters:\nbefore %s\nafter  %s", before, counters(fresh))
			}

			for _, n := range []int{0, 1, 5} {
				bulk, twin := c.mk(), c.mk()
				c.setup(bulk)
				c.setup(twin)
				if !bulk.AcquireWouldFailN(c.pid, n) {
					t.Fatalf("n=%d: hint said a hopeless network could grant", n)
				}
				for i := 0; i < n; i++ {
					if !twin.AcquireWouldFail(c.pid) {
						t.Fatalf("n=%d: single hint disagreed with the bulk hint", n)
					}
				}
				if counters(bulk) != counters(twin) {
					t.Errorf("n=%d: bulk accounting diverged:\nbulk   %s\nsingle %s", n, counters(bulk), counters(twin))
				}
			}
		})
	}

	// The untouched partition of PART stays live, and a partition whose
	// sub-network has no block hint answers false.
	part := core.NewPartitioned([]core.Network{bus.New(2, 1), crossbar.New(2, 1, 1)})
	part.Acquire(2)
	if part.AcquireWouldFailN(0, 1) {
		t.Error("block hint condemned an idle partition")
	}
	mixed := core.NewPartitioned([]core.Network{&plainNet{granted: true}})
	if mixed.AcquireWouldFailN(0, 1) {
		t.Error("sub-network without a block hint reported a certain failure")
	}
}

// memoNet is a network with a failure memo.
type memoNet interface {
	core.Network
	core.FailureMemo
}

// stuckOmega drives the 8-port, one-resource-per-port Omega serving
// processors [base, base+8) into a stuck state: ports stay free, but
// the requests of processors base and base+4 are rejected inside the
// boxes. It returns a grant still on its path and one whose path was
// released (its resource still serving).
func stuckOmega(n core.Network, base int) (onPath, serving core.Grant) {
	serving, _ = n.Acquire(base)
	n.ReleasePath(serving)
	n.Acquire(base + 1)
	n.Acquire(base + 2)
	onPath, _ = n.Acquire(base)
	return onPath, serving
}

// violates reports whether f panics with an *invariant.Violation.
func violates(f func()) (v bool) {
	defer func() { v = invariant.ClassifyPanic(recover()) != nil }()
	f()
	return false
}

// TestFailureMemoContract pins the core.FailureMemo contract on Omega
// and on a Partitioned of Omegas. Once the stuck processors' failures
// are recorded, RepeatFailures(pid, waiters, n) must change Telemetry
// and DetailCounters exactly as n more rounds of the same failed
// Acquires do on a twin, and recording itself must change nothing.
// Every change of the network's state — a grant, ReleasePath,
// ReleaseResource, Reset, SetResourceAvailability — must leave the
// memo stale, which the invariant build reports, as it reports a
// waiter count the memo does not cover. A network whose failed
// attempts draw randomness (LaneRandom), a 2×2 Omega (never stuck),
// or a Partitioned with a sub-network that has no memo, must decline
// to record.
func TestFailureMemoContract(t *testing.T) {
	defer invariant.Enable(invariant.Enabled())
	invariant.Enable(true)

	part := func(opts ...omega.Option) memoNet {
		return core.NewPartitioned([]core.Network{omega.New(8, 1, opts...), omega.New(8, 1, opts...)})
	}
	cases := []struct {
		name  string
		mk    func(opts ...omega.Option) memoNet
		base  int // first processor of the stuck block
		other int // a processor outside it, -1 if none
	}{
		{"OMEGA", func(opts ...omega.Option) memoNet { return omega.New(8, 1, opts...) }, 0, -1},
		{"PART/OMEGA", part, 8, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stuck := []int{c.base, c.base + 4}
			// record builds a recording network in the stuck state and
			// fails every stuck processor once on it and on twin.
			record := func(twin core.Network) (memoNet, core.Grant, core.Grant) {
				n := c.mk()
				if !n.RecordFailures() {
					t.Fatal("RecordFailures declined under the deterministic lane policy")
				}
				onPath, serving := stuckOmega(n, c.base)
				if twin != nil {
					stuckOmega(twin, c.base)
				}
				for _, pid := range stuck {
					if _, ok := n.Acquire(pid); ok {
						t.Fatalf("setup: processor %d was granted", pid)
					}
					if twin != nil {
						twin.Acquire(pid)
					}
				}
				return n, onPath, serving
			}

			for _, rounds := range []int{0, 1, 3} {
				twin := c.mk()
				n, _, _ := record(twin)
				// A recorded processor failing again is counted by the
				// network, not recorded twice.
				n.Acquire(stuck[0])
				twin.Acquire(stuck[0])
				if counters(n) != counters(twin) {
					t.Fatalf("recording changed the counters:\nmemo %s\ntwin %s", counters(n), counters(twin))
				}
				before := twin.(core.TelemetrySource).Telemetry()
				n.RepeatFailures(c.base, len(stuck), rounds)
				for r := 0; r < rounds; r++ {
					for _, pid := range stuck {
						if _, ok := twin.Acquire(pid); ok {
							t.Fatalf("twin granted stuck processor %d", pid)
						}
					}
				}
				if rounds > 0 && twin.(core.TelemetrySource).Telemetry().Rejects == before.Rejects {
					t.Fatal("the stuck state rejects nothing: the case does not exercise the reject counters")
				}
				if counters(n) != counters(twin) {
					t.Errorf("rounds=%d: repeat accounting diverged:\nmemo %s\ntwin %s", rounds, counters(n), counters(twin))
				}
			}

			n, _, _ := record(nil)
			if !violates(func() { n.RepeatFailures(c.base, len(stuck)+1, 1) }) {
				t.Error("a waiter count the memo does not cover went unreported")
			}

			type change struct {
				name string
				do   func(n memoNet, onPath, serving core.Grant)
			}
			changes := []change{
				{"grant", func(n memoNet, _, _ core.Grant) {
					for pid := c.base; pid < c.base+8; pid++ {
						if _, ok := n.Acquire(pid); ok {
							return
						}
					}
					t.Fatal("no processor of the stuck block can be granted")
				}},
				{"ReleasePath", func(n memoNet, onPath, _ core.Grant) { n.ReleasePath(onPath) }},
				{"ReleaseResource", func(n memoNet, _, serving core.Grant) { n.ReleaseResource(serving) }},
			}
			if _, ok := c.mk().(*omega.Omega); ok {
				changes = append(changes,
					change{"Reset", func(n memoNet, _, _ core.Grant) { n.(*omega.Omega).Reset() }},
					change{"SetResourceAvailability", func(n memoNet, _, _ core.Grant) { n.(*omega.Omega).SetResourceAvailability(7, 1) }},
				)
			}
			for _, ch := range changes {
				n, onPath, serving := record(nil)
				ch.do(n, onPath, serving)
				if !violates(func() { n.RepeatFailures(c.base, len(stuck), 1) }) {
					t.Errorf("%s left the memo valid", ch.name)
				}
			}

			// The memo is per block: another block's state and memo are
			// its own.
			if c.other >= 0 {
				n, _, _ := record(nil)
				if _, ok := n.Acquire(c.other); !ok {
					t.Fatal("idle partition refused a request")
				}
				if violates(func() { n.RepeatFailures(c.base, len(stuck), 1) }) {
					t.Error("a grant in another partition invalidated the memo")
				}
			}

			if c.mk(omega.WithLanePolicy(omega.LaneRandom)).RecordFailures() {
				t.Error("RecordFailures accepted a network whose failed routes draw randomness")
			}
		})
	}

	mixed := core.NewPartitioned([]core.Network{omega.New(4, 1), bus.New(4, 1)})
	if mixed.RecordFailures() {
		t.Error("RecordFailures accepted a Partitioned with a sub-network that has no memo")
	}
	oneRandom := core.NewPartitioned([]core.Network{omega.New(4, 1), omega.New(4, 1, omega.WithLanePolicy(omega.LaneRandom))})
	if oneRandom.RecordFailures() {
		t.Error("RecordFailures accepted a Partitioned with a LaneRandom sub-network")
	}
	if omega.New(2, 1).RecordFailures() {
		t.Error("RecordFailures accepted a 2×2 Omega, whose one box never refuses a live request")
	}
}

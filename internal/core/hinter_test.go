package core_test

import (
	"fmt"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
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

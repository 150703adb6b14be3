package core_test

import (
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/omega"
	"rsin/internal/rng"
)

// silentNet is a sub-network with neither telemetry nor a reject
// counter; its Acquire always fails.
type silentNet struct{ procs int }

func (n silentNet) Acquire(int) (core.Grant, bool) { return core.Grant{}, false }
func (n silentNet) ReleasePath(core.Grant)         {}
func (n silentNet) ReleaseResource(core.Grant)     {}
func (n silentNet) Processors() int                { return n.procs }
func (n silentNet) Ports() int                     { return 1 }
func (n silentNet) TotalResources() int            { return 1 }
func (n silentNet) Name() string                   { return "silent" }

// telemetryOnly forwards a network's TelemetrySource but not its
// RejectSource, like a decorator written without knowing of it.
type telemetryOnly struct {
	core.Network
	tel core.TelemetrySource
}

func (w telemetryOnly) Telemetry() core.Telemetry { return w.tel.Telemetry() }

// TestPartitionedRejects checks the O(1) reject lookup against the
// sub-networks' own telemetry: after every step of a random
// Acquire/release sequence over mixed sub-networks, Rejects(pid) must
// equal the Telemetry().Rejects of pid's sub-network, and 0 for a
// sub-network without telemetry. The last partition hides its Omega
// behind a wrapper that forwards only TelemetrySource, whose rejects
// core.RejectsOf must still find.
func TestPartitionedRejects(t *testing.T) {
	const per = 16
	wrapped := omega.New(per, 2, omega.WithSeed(2))
	subs := []core.Network{
		omega.New(per, 2, omega.WithSeed(1)),
		crossbar.New(per, 8, 1),
		silentNet{procs: per},
		telemetryOnly{Network: wrapped, tel: wrapped},
	}
	p := core.NewPartitioned(subs)
	want := func(pid int) int64 {
		if ts, ok := subs[pid/per].(core.TelemetrySource); ok {
			return ts.Telemetry().Rejects
		}
		return 0
	}
	// A grant holds its path (transmitting) until ReleasePath and its
	// resource (serving) until ReleaseResource, as in the engine's task
	// lifecycle; held paths are what make Omega requests reject.
	src := rng.New(7)
	var transmitting, serving []core.Grant
	take := func(gs *[]core.Grant) core.Grant {
		i := src.Intn(len(*gs))
		g := (*gs)[i]
		(*gs)[i] = (*gs)[len(*gs)-1]
		*gs = (*gs)[:len(*gs)-1]
		return g
	}
	for step := 0; step < 4000; step++ {
		switch src.Intn(4) {
		case 0:
			if len(transmitting) > 0 {
				g := take(&transmitting)
				p.ReleasePath(g)
				serving = append(serving, g)
			}
		case 1:
			if len(serving) > 0 {
				p.ReleaseResource(take(&serving))
			}
		default:
			if g, ok := p.Acquire(src.Intn(p.Processors())); ok {
				transmitting = append(transmitting, g)
			}
		}
		for pid := 0; pid < p.Processors(); pid++ {
			if got, w := p.Rejects(pid), want(pid); got != w {
				t.Fatalf("step %d: Rejects(%d) = %d, sub-network telemetry says %d", step, pid, got, w)
			}
		}
	}
	for _, s := range []int{0, 3} {
		if p.Rejects(s*per) == 0 {
			t.Errorf("omega partition %d never rejected: the sequence does not exercise the counter", s)
		}
	}
	if p.Rejects(0) == p.Rejects(3*per) {
		t.Errorf("both omega partitions report %d rejects: lookups may not be per partition", p.Rejects(0))
	}

	// Bus, crossbar and Omega are their own O(1) counters: RejectsOf
	// must hand them back as they are, not behind the Telemetry fallback
	// that copies the whole Telemetry on every read.
	for _, n := range []core.Network{bus.New(4, 2), crossbar.New(4, 2, 1), omega.New(4, 1)} {
		if got := core.RejectsOf(n); any(got) != any(n) {
			t.Errorf("RejectsOf(%s) = %T, want the network itself", n.Name(), got)
		}
	}
}

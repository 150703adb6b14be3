package main

import (
	"time"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/obs"
)

// netCalls accumulates what the timing decorator saw on one network
// kind (every sub-network of that kind shares one record).
type netCalls struct {
	AcquireCalls int64
	AcquireOK    int64
	AcquireNs    int64
	HintCalls    int64
	HintTrue     int64
	HintNs       int64
	ReleaseCalls int64
	ReleaseNs    int64
	TelCalls     int64
	TelNs        int64
}

func (c *netCalls) add(o netCalls) {
	c.AcquireCalls += o.AcquireCalls
	c.AcquireOK += o.AcquireOK
	c.AcquireNs += o.AcquireNs
	c.HintCalls += o.HintCalls
	c.HintTrue += o.HintTrue
	c.HintNs += o.HintNs
	c.ReleaseCalls += o.ReleaseCalls
	c.ReleaseNs += o.ReleaseNs
	c.TelCalls += o.TelCalls
	c.TelNs += o.TelNs
}

// timedNet is the traced run's network decorator: it times Acquire,
// AcquireWouldFail, ReleasePath, ReleaseResource and Telemetry, and
// forwards the optional interfaces sim.Run looks for, so a run through
// it yields the same Result as a run on the bare network.
type timedNet struct {
	inner core.Network
	hint  core.AvailabilityHinter
	tel   core.TelemetrySource
	c     *netCalls
	// timeTel is unset on the sub-networks of a Partitioned, whose
	// Telemetry calls are timed once for all of them, into core.
	timeTel bool
}

// timedDetailNet adds DetailSource forwarding for networks that have it;
// a network without it must not gain it, or Result.Details would differ.
type timedDetailNet struct {
	*timedNet
	det core.DetailSource
}

// wrapNet returns n behind the timing decorator. Every network in the
// repository implements AvailabilityHinter and TelemetrySource; one
// that does not is a programming error in the benchmark.
func wrapNet(n core.Network, c *netCalls, timeTel bool) core.Network {
	t := &timedNet{inner: n, c: c, timeTel: timeTel}
	var ok bool
	if t.hint, ok = n.(core.AvailabilityHinter); !ok {
		panic("rsinbench: network without AvailabilityHinter: " + n.Name())
	}
	if t.tel, ok = n.(core.TelemetrySource); !ok {
		panic("rsinbench: network without TelemetrySource: " + n.Name())
	}
	if d, ok := n.(core.DetailSource); ok {
		return timedDetailNet{timedNet: t, det: d}
	}
	return t
}

func (t *timedNet) Acquire(pid int) (core.Grant, bool) {
	t0 := time.Now()
	g, ok := t.inner.Acquire(pid)
	t.c.AcquireNs += int64(time.Since(t0))
	t.c.AcquireCalls++
	if ok {
		t.c.AcquireOK++
	}
	return g, ok
}

func (t *timedNet) AcquireWouldFail(pid int) bool {
	t0 := time.Now()
	fail := t.hint.AcquireWouldFail(pid)
	t.c.HintNs += int64(time.Since(t0))
	t.c.HintCalls++
	if fail {
		t.c.HintTrue++
	}
	return fail
}

func (t *timedNet) ReleasePath(g core.Grant) {
	t0 := time.Now()
	t.inner.ReleasePath(g)
	t.c.ReleaseNs += int64(time.Since(t0))
	t.c.ReleaseCalls++
}

func (t *timedNet) ReleaseResource(g core.Grant) {
	t0 := time.Now()
	t.inner.ReleaseResource(g)
	t.c.ReleaseNs += int64(time.Since(t0))
	t.c.ReleaseCalls++
}

func (t *timedNet) Telemetry() core.Telemetry {
	if !t.timeTel {
		return t.tel.Telemetry()
	}
	t0 := time.Now()
	tel := t.tel.Telemetry()
	t.c.TelNs += int64(time.Since(t0))
	t.c.TelCalls++
	return tel
}

func (t *timedNet) Processors() int     { return t.inner.Processors() }
func (t *timedNet) Ports() int          { return t.inner.Ports() }
func (t *timedNet) TotalResources() int { return t.inner.TotalResources() }
func (t *timedNet) Name() string        { return t.inner.Name() }

func (t timedDetailNet) DetailCounters() []core.NamedCounter { return t.det.DetailCounters() }

// timedPartitioned times only Telemetry on a core.Partitioned: the
// engine calls it around every Acquire when a probe is attached. The
// grant path is timed on the sub-networks underneath, so Acquire and
// the rest pass through untimed.
type timedPartitioned struct {
	*core.Partitioned
	c *netCalls
}

func (t timedPartitioned) Telemetry() core.Telemetry {
	t0 := time.Now()
	tel := t.Partitioned.Telemetry()
	t.c.TelNs += int64(time.Since(t0))
	t.c.TelCalls++
	return tel
}

// netKind names the decorator's record for a network type: the
// repository module that implements it.
func netKind(t config.NetworkType) string {
	switch t {
	case config.SBUS:
		return "bus"
	case config.XBAR:
		return "crossbar"
	default:
		return "omega"
	}
}

// omegaSeedStride is the per-sub-network Omega seed offset config.Build
// applies (opt.Seed + idx·stride). buildTimed repeats it so the traced
// network matches the untraced one; the traced run checks the match
// by comparing result digests.
const omegaSeedStride = 0x9e3779b9

// buildTimed materializes cfg like cfg.Build, with every sub-network
// behind the timing decorator and a Partitioned layer (when i > 1)
// whose Telemetry is timed into core.
func buildTimed(cfg config.Config, opt config.BuildOptions, calls map[string]*netCalls) (core.Network, error) {
	sub := cfg
	sub.Processors, sub.Networks = cfg.Inputs, 1
	kind := calls[netKind(cfg.Type)]
	subs := make([]core.Network, cfg.Networks)
	for i := range subs {
		o := opt
		o.Seed = opt.Seed + uint64(i)*omegaSeedStride
		n, err := sub.Build(o)
		if err != nil {
			return nil, err
		}
		subs[i] = wrapNet(n, kind, cfg.Networks == 1)
	}
	if cfg.Networks == 1 {
		return subs[0], nil
	}
	return timedPartitioned{Partitioned: core.NewPartitioned(subs), c: calls["core"]}, nil
}

// timedProbe times Event on the probe it wraps and remembers the host
// time of its first and last event, which bounds the run it observes.
type timedProbe struct {
	inner       obs.Probe
	events      int64
	ns          int64
	first, last time.Time
}

func (p *timedProbe) Event(e obs.Event) {
	t0 := time.Now()
	p.inner.Event(e)
	t1 := time.Now()
	if p.events == 0 {
		p.first = t0
	}
	p.last = t1
	p.events++
	p.ns += int64(t1.Sub(t0))
}

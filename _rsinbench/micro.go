package main

import (
	"time"

	"rsin/internal/bus"
	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
	"rsin/internal/rng"
	"rsin/internal/sim"
	"rsin/internal/stats"
)

// microRepeats is how many times each micro row is measured; the row
// reports the median.
const microRepeats = 5

// microSink keeps the compiler from discarding measured results.
var microSink float64

// microRows measures, at fixed states, the per-call cost of layers
// whose calls sim.Run makes internally and a decorator cannot reach:
// the RNG, the statistics accumulators and the recorders. The network
// rows time the grant path outside the engine, with half of every
// network's resources held. The event queue and the wake engine are
// unexported, so their time shows only inside sim.self_s.
func microRows() map[string]metric {
	m := map[string]metric{}
	row := func(name string, fn func() float64) {
		xs := make([]float64, microRepeats)
		for i := range xs {
			xs[i] = fn()
		}
		m[name] = metric{median(xs), "ns"}
	}
	const n = 1 << 20
	row("rng.Exp_ns", func() float64 {
		src := rng.New(1)
		t0 := time.Now()
		s := 0.0
		for i := 0; i < n; i++ {
			s += src.Exp(1.5)
		}
		microSink += s
		return perCall(t0, n)
	})
	row("stats.BatchMeans.Add_ns", func() float64 {
		bm := stats.NewBatchMeans(1000)
		bm.Reserve(n/1000 + 1)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			bm.Add(float64(i & 1023))
		}
		return perCall(t0, n)
	})
	row("stats.TimeWeighted.Set_ns", func() float64 {
		var tw stats.TimeWeighted
		t0 := time.Now()
		for i := 0; i < n; i++ {
			tw.Set(float64(i), float64(i&7))
		}
		microSink += tw.Mean()
		return perCall(t0, n)
	})

	events, p := recordedEvents()
	row("obs.AttrRecorder.Event_ns", func() float64 {
		a := obs.NewAttrRecorder(attrTopK)
		t0 := time.Now()
		for _, e := range events {
			a.Event(e)
		}
		return perCall(t0, len(events))
	})
	row("obs.SeriesRecorder.Event_ns", func() float64 {
		s := obs.NewSeriesRecorder(p, seriesDt)
		s.Reserve(int(events[len(events)-1].T/seriesDt) + 2)
		t0 := time.Now()
		for _, e := range events {
			s.Event(e)
		}
		return perCall(t0, len(events))
	})

	nets := []struct {
		module string
		make   func() core.Network
	}{
		{"bus", func() core.Network { return bus.New(16, 32) }},
		{"crossbar", func() core.Network { return crossbar.New(64, 64, 1) }},
		{"omega", func() core.Network { return omega.New(64, 1) }},
	}
	for _, nt := range nets {
		var acq, rp, rr, hint []float64
		for i := 0; i < microRepeats; i++ {
			c := netMicro(nt.make())
			acq, rp, rr, hint = append(acq, c[0]), append(rp, c[1]), append(rr, c[2]), append(hint, c[3])
		}
		m[nt.module+".Acquire_ns"] = metric{median(acq), "ns"}
		m[nt.module+".ReleasePath_ns"] = metric{median(rp), "ns"}
		m[nt.module+".ReleaseResource_ns"] = metric{median(rr), "ns"}
		m[nt.module+".AcquireWouldFail_ns"] = metric{median(hint), "ns"}
	}
	return m
}

func perCall(t0 time.Time, n int) float64 {
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// recordedEvents captures the probe event stream of a short
// 64/1x64x64 XBAR/1 run at ρ = 0.8, the recorders' fixed input.
func recordedEvents() ([]obs.Event, int) {
	cfg, err := config.Parse("64/1x64x64 XBAR/1")
	if err != nil {
		panic(err)
	}
	net, err := cfg.Build(config.BuildOptions{})
	if err != nil {
		panic(err)
	}
	var events []obs.Event
	_, err = sim.Run(net, sim.Config{
		Lambda: queueing.LambdaForIntensity(bigRho, 64, bigMuN, bigMuS, 64),
		MuN:    bigMuN, MuS: bigMuS, Seed: 1, Warmup: bigWarmup, Samples: 5000,
		Probe: obs.Func(func(e obs.Event) { events = append(events, e) }),
	})
	if err != nil {
		panic(err)
	}
	return events, cfg.Processors
}

// netMicro times net's grant path at a fixed occupancy: half of its
// resources are held in service, and each cycle grants eight more
// (Acquire, then ReleasePath as transmission ends), probes the hint for
// eight idle processors, and releases the eight resources again. It
// returns ns per Acquire, ReleasePath, ReleaseResource and
// AcquireWouldFail, less the cost of reading the clock.
func netMicro(net core.Network) [4]float64 {
	p := net.Processors()
	for i := 0; i < net.TotalResources()/2; i++ {
		g, ok := net.Acquire(i % p)
		if !ok {
			panic("rsinbench: micro set-up could not reach half occupancy on " + net.Name())
		}
		net.ReleasePath(g)
	}
	hinter := net.(core.AvailabilityHinter)
	const cycles, batch = 4000, 8
	var ns [4]int64
	var calls [4]int64
	held := make([]core.Grant, 0, batch)
	for c := 0; c < cycles; c++ {
		held = held[:0]
		for j := 0; j < batch; j++ {
			pid := (c*batch + j) % p
			t0 := time.Now()
			g, ok := net.Acquire(pid)
			t1 := time.Now()
			ns[0] += int64(t1.Sub(t0))
			calls[0]++
			if !ok {
				continue
			}
			net.ReleasePath(g)
			ns[1] += int64(time.Since(t1))
			calls[1]++
			held = append(held, g)
		}
		for j := 0; j < batch; j++ {
			t0 := time.Now()
			hinter.AcquireWouldFail((c*batch + j) % p)
			ns[3] += int64(time.Since(t0))
			calls[3]++
		}
		for _, g := range held {
			t0 := time.Now()
			net.ReleaseResource(g)
			ns[2] += int64(time.Since(t0))
			calls[2]++
		}
	}
	clock := clockCost()
	var out [4]float64
	for k := range out {
		out[k] = max(0, float64(ns[k])/float64(max(calls[k], 1))-clock)
	}
	return out
}

// clockCost is the measured cost of one timed empty interval.
func clockCost() float64 {
	const n = 1 << 16
	var total int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += int64(time.Since(t0))
	}
	return float64(total) / n
}

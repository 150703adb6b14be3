package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/obs"
)

// captureProbe records every event in order, for assertions on the
// exact emission sequence.
type captureProbe struct {
	events []obs.Event
}

func (c *captureProbe) Event(e obs.Event) { c.events = append(c.events, e) }

// neverNet is a network whose Acquire always fails: every arrival
// queues forever, so queue-growth behavior can be pinned exactly.
type neverNet struct{ procs int }

func (n *neverNet) Acquire(pid int) (core.Grant, bool) { return core.Grant{}, false }
func (n *neverNet) ReleasePath(core.Grant)             {}
func (n *neverNet) ReleaseResource(core.Grant)         {}
func (n *neverNet) Processors() int                    { return n.procs }
func (n *neverNet) Ports() int                         { return 1 }
func (n *neverNet) TotalResources() int                { return 1 }
func (n *neverNet) Name() string                       { return "never" }

// TestDelayQuantileInterpolation pins the interpolating quantile
// estimator. The pre-fix implementation truncated the fractional
// position (biasing every quantile low: the median of {1,2,3,4} came
// out as 2) and re-sorted the sample on every call.
func TestDelayQuantileInterpolation(t *testing.T) {
	res := Result{Delays: []float64{3, 1, 4, 2}} // unsorted on purpose
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{0.25, 1.75},
		{0.5, 2.5}, // regression: truncation gave 2
		{0.75, 3.25},
		{0.95, 3.85},
		{1, 4},
	}
	for _, c := range cases {
		if got := res.DelayQuantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DelayQuantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if len(res.sortedDelays) != 4 {
		t.Fatal("sorted sample not cached")
	}
	// The cache must not disturb the raw sample order.
	if res.Delays[0] != 3 || res.Delays[3] != 2 {
		t.Errorf("Delays mutated by quantile query: %v", res.Delays)
	}
	single := Result{Delays: []float64{7}}
	for _, q := range []float64{0, 0.5, 1} {
		if got := single.DelayQuantile(q); got != 7 {
			t.Errorf("single-sample DelayQuantile(%g) = %g, want 7", q, got)
		}
	}
}

func TestDelayQuantilePanicsOutsideUnitInterval(t *testing.T) {
	res := Result{Delays: []float64{1, 2}}
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DelayQuantile(%g) did not panic", q)
				}
			}()
			res.DelayQuantile(q)
		}()
	}
}

// TestSaturationBoundaryExact pins the MaxQueue cap to its documented
// meaning: the run aborts the moment a queue reaches MaxQueue tasks.
// The pre-fix check (> after append) let the queue grow to MaxQueue+1
// before tripping. With a network that never grants, the single
// processor's queue grows by exactly one per arrival, so the probe
// must see exactly MaxQueue arrivals — and one fewer enqueue, since
// the saturating arrival aborts before its enqueue report.
func TestSaturationBoundaryExact(t *testing.T) {
	cap := 3
	probe := &captureProbe{}
	_, err := Run(&neverNet{procs: 1}, Config{
		Lambda: 1, MuN: 1, MuS: 1,
		Samples: 10, MaxQueue: cap, Probe: probe,
	})
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	arrivals, enqueues := 0, 0
	for _, e := range probe.events {
		switch e.Kind {
		case obs.KindArrival:
			arrivals++
		case obs.KindEnqueue:
			enqueues++
		}
	}
	if arrivals != cap {
		t.Errorf("saturated after %d arrivals, want exactly MaxQueue=%d", arrivals, cap)
	}
	if enqueues != cap-1 {
		t.Errorf("saw %d enqueues, want %d (saturating arrival aborts before its enqueue)", enqueues, cap-1)
	}
}

// TestEnqueueEmittedBeforeGrant pins the probe event order of the
// arrival path: every arrival that joins the queue reports KindEnqueue
// before the allocation attempt, so a same-instant grant appears after
// its enqueue. The pre-fix engine emitted the enqueue only when the
// attempt had already failed, so immediately-granted tasks left no
// enqueue record at all.
func TestEnqueueEmittedBeforeGrant(t *testing.T) {
	probe := &captureProbe{}
	cfg := probeCfg(23)
	cfg.Probe = probe
	if _, err := Run(bus.New(8, 4), cfg); err != nil {
		t.Fatal(err)
	}
	arrivals, enqueues, immediateGrants := 0, 0, 0
	lastEnqueueByPid := map[int]int{} // pid → index of latest enqueue event
	for i, e := range probe.events {
		switch e.Kind {
		case obs.KindArrival:
			arrivals++
		case obs.KindEnqueue:
			enqueues++
			if e.Aux < 1 {
				t.Fatalf("enqueue with queue length %d; Aux must count the task itself", e.Aux)
			}
			lastEnqueueByPid[e.Pid] = i
		case obs.KindGrant:
			// A grant consumes the head of pid's queue, which that pid's
			// most recent enqueue must precede in stream order.
			last, ok := lastEnqueueByPid[e.Pid]
			if !ok || last > i {
				t.Fatalf("grant for processor %d at event %d without a preceding enqueue", e.Pid, i)
			}
			if probe.events[last].T == e.T {
				immediateGrants++
			}
		}
	}
	if arrivals == 0 {
		t.Fatal("no arrivals observed")
	}
	if enqueues != arrivals {
		t.Errorf("%d enqueues for %d arrivals; every queued arrival must report one", enqueues, arrivals)
	}
	if immediateGrants == 0 {
		t.Error("workload produced no same-instant grants; ordering regression not exercised")
	}
}

// TestResponseExcludesPreWarmupArrivals pins the warmup gate of the
// response estimator: only tasks whose arrival fell inside the
// measurement window contribute. The workload is adversarial — a
// slow, strictly-FIFO single-processor system whose queue straddles
// the warmup cut, so tasks that arrived during warmup complete well
// after it. The pre-fix engine admitted those straddlers, biasing the
// response mean with transient queueing.
func TestResponseExcludesPreWarmupArrivals(t *testing.T) {
	probe := &captureProbe{}
	cfg := Config{
		Lambda: 0.5, MuN: 1, MuS: 1,
		Seed: 29, Warmup: 50, Samples: 200, BatchSize: 1,
		Probe: probe,
	}
	res, err := Run(bus.New(1, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One processor, one bus, one resource: at most one task is in
	// flight, so completions happen in arrival order and the i-th
	// release pairs with the i-th arrival.
	var arrivals []float64
	wantN, straddlers := 0, 0
	releases := 0
	for _, e := range probe.events {
		switch e.Kind {
		case obs.KindArrival:
			arrivals = append(arrivals, e.T)
		case obs.KindRelease:
			arrived := arrivals[releases]
			releases++
			if e.T >= cfg.Warmup {
				if arrived >= cfg.Warmup {
					wantN++
				} else {
					straddlers++
				}
			}
		}
	}
	if straddlers == 0 {
		t.Fatal("workload produced no warmup straddlers; the gate is not exercised")
	}
	// BatchSize 1 makes Response.N the raw sample count.
	if int(res.Response.N) != wantN {
		t.Errorf("Response.N = %d, want %d post-warmup-arrival completions (%d straddlers excluded)",
			res.Response.N, wantN, straddlers)
	}
}

// TestRunRejectsNonFiniteInputs pins the validation of every float
// input: NaN compares false against every bound and ±Inf passes the
// sign checks, so without an explicit finiteness check a NaN warmup
// never warms up, a NaN or infinite rate stalls the event loop or
// yields an empty "successful" run, and a NaN per-processor rate is
// silently treated as zero. Each row runs under a deadline so a
// regression fails the test instead of hanging it.
func TestRunRejectsNonFiniteInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rows := []struct {
		name string
		mod  func(*Config)
	}{
		{"Lambda=NaN", func(c *Config) { c.Lambda = nan }},
		{"Lambda=+Inf", func(c *Config) { c.Lambda = inf }},
		{"Lambdas=NaN", func(c *Config) { c.Lambdas = []float64{0.1, nan, 0.1, 0.1} }},
		{"Lambdas=+Inf", func(c *Config) { c.Lambdas = []float64{0.1, 0.1, inf, 0.1} }},
		{"MuN=NaN", func(c *Config) { c.MuN = nan }},
		{"MuN=+Inf", func(c *Config) { c.MuN = inf }},
		{"MuS=NaN", func(c *Config) { c.MuS = nan }},
		{"MuS=+Inf", func(c *Config) { c.MuS = inf }},
		{"Warmup=NaN", func(c *Config) { c.Warmup = nan }},
		{"Warmup=+Inf", func(c *Config) { c.Warmup = inf }},
		{"Warmup=-Inf", func(c *Config) { c.Warmup = -inf }},
		{"RetryJitter=NaN", func(c *Config) { c.RetryJitter = nan }},
		{"RetryJitter=+Inf", func(c *Config) { c.RetryJitter = inf }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{Lambda: 0.1, MuN: 1, MuS: 1, Seed: 1, Warmup: 10, Samples: 1000}
			row.mod(&cfg)
			done := make(chan error, 1)
			go func() {
				_, err := Run(bus.New(4, 4), cfg)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Errorf("%s accepted", row.name)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: Run did not return within 5s", row.name)
			}
		})
	}
}

// Package sim is the discrete-event simulation kernel that drives any
// core.Network through the paper's workload model (Section II):
//
//	(a) Poisson task arrivals per processor; exponential transmission
//	    and service times.
//	(b) Blocked tasks queue FIFO at their processor and retry as soon
//	    as the network signals availability (modeled by re-attempting
//	    allocation on every release event).
//	(c) Network propagation delay is negligible: allocation decisions
//	    are evaluated instantaneously at event times.
//	(d,e) One resource type; one resource per request.
//	(f) A processor transmits one task at a time.
//
// The measured quantity is d, the expected delay in the queue before a
// free resource is allocated (time from arrival to the start of
// transmission), reported with a batch-means confidence interval and
// normalized by the mean service time as in the paper's figures.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/rng"
	"rsin/internal/stats"
)

// WakePolicy selects the order in which blocked processors re-attempt
// allocation after a release. The paper's crossbar cell design is
// inherently asymmetric (low-index processors win the wavefront); the
// POLYP-style token alternative randomizes the winner. The policies are
// compared in an ablation benchmark.
type WakePolicy int

const (
	// WakeIndexOrder retries processors in ascending index order — the
	// asymmetric priority of the paper's distributed crossbar cells.
	WakeIndexOrder WakePolicy = iota
	// WakeRandom retries processors in a fresh random order each time —
	// the POLYP-style circulating-token discipline.
	WakeRandom
	// WakeRoundRobin rotates the starting processor on every release,
	// a fair hardware-friendly compromise.
	WakeRoundRobin
)

// String returns the policy name.
func (w WakePolicy) String() string {
	switch w {
	case WakeIndexOrder:
		return "index-order"
	case WakeRandom:
		return "random"
	case WakeRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("WakePolicy(%d)", int(w))
	}
}

// Config parameterizes one simulation run.
type Config struct {
	Lambda  float64   // per-processor arrival rate λ
	Lambdas []float64 // optional per-processor rates (overrides Lambda; len must equal the processor count)
	MuN     float64   // transmission rate μn
	MuS     float64   // service rate μs

	Seed      uint64  // PRNG seed; equal seeds give identical runs
	Warmup    float64 // simulated time discarded before measuring
	Samples   int     // post-warmup delay samples to collect
	BatchSize int     // batch size for the batch-means CI (default 1/30 of Samples)
	// MaxQueue is the safety cap on any single processor queue: the run
	// aborts with ErrSaturated as soon as a queue reaches MaxQueue tasks
	// (default 2^20). In practice the cap fires only when the offered
	// load exceeds the configuration's capacity.
	MaxQueue   int
	WakePolicy WakePolicy // retry ordering after releases

	// RetryJitter, when positive, is the mean of an exponential random
	// delay inserted before a blocked processor re-attempts allocation
	// after new status information arrives — the paper's Section V
	// suggestion for de-synchronizing the simultaneous retries caused
	// by clocked status broadcasts. Zero (the default) retries
	// immediately at the release instant.
	RetryJitter float64

	// CollectDelays, when set, stores every post-warmup delay sample in
	// Result.Delays (Samples values), enabling quantile analysis beyond
	// the mean the paper reports.
	CollectDelays bool

	// ExportAccumulators, when set, attaches the run's raw statistical
	// accumulators to Result.Accum so an orchestrator can combine
	// per-shard runs exactly (internal/shard). The Result's derived
	// fields (CIs, means) are not mergeable on their own — merging needs
	// the underlying batch means and time-weighted windows.
	ExportAccumulators bool

	// Probe, when non-nil, receives every lifecycle event (arrivals,
	// enqueues, grants, transmissions, releases, rejects) stamped with
	// simulated time. A nil Probe is the fast path: every emission site
	// is guarded by a nil check, so an unobserved run pays one branch
	// per event. Probes observe the full run including warmup.
	Probe obs.Probe
}

// Result carries the measured steady-state estimates of one run.
type Result struct {
	Delay           stats.CI // mean queueing delay d with 95% CI
	NormalizedDelay stats.CI // d·μs
	Response        stats.CI // mean response time (arrival → service completion)
	MeanQueue       float64  // time-averaged total queued tasks
	Utilization     float64  // fraction of port-time spent transmitting or reserved
	Completed       int64    // tasks fully served during measurement
	Telemetry       core.Telemetry
	Details         []core.NamedCounter // fine-grained network counters (core.DetailSource)
	SimTime         float64             // simulated duration (including warmup)
	Delays          []float64           // raw post-warmup delay samples (Config.CollectDelays)

	// Accum carries the run's raw accumulators when
	// Config.ExportAccumulators is set; nil otherwise.
	Accum *Accum

	// sortedDelays caches the sorted copy of Delays built lazily by
	// DelayQuantile, so repeated quantile queries sort once.
	sortedDelays []float64
}

// Accum is the raw-accumulator export behind Config.ExportAccumulators:
// the batch-means accumulators that produced the Delay/Response
// intervals, and the closed (post-Finish) time-weighted windows behind
// MeanQueue and Utilization. internal/shard folds these across shards
// in canonical ascending order to build one merged Result.
type Accum struct {
	Delays    *stats.BatchMeans  // per-sample queueing delays
	Responses *stats.BatchMeans  // per-task response times
	QueueLen  stats.TimeWeighted // total queued tasks over the measurement window
	BusyPorts stats.TimeWeighted // busy output ports over the measurement window
	Ports     int                // net.Ports(), for the ports-weighted utilization merge
}

// DelayQuantile returns the q-quantile (0 ≤ q ≤ 1) of the collected
// delay samples, linearly interpolating between order statistics (the
// standard "type 7" estimator): q=0 is the minimum, q=1 the maximum,
// q=0.5 of an even-sized sample the mean of the two middle values.
// It requires Config.CollectDelays and panics otherwise, or when q is
// outside [0, 1]. The sorted sample is cached on first use, so a sweep
// of quantile queries pays for one sort.
func (r *Result) DelayQuantile(q float64) float64 {
	if len(r.Delays) == 0 {
		panic("sim: DelayQuantile requires Config.CollectDelays")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("sim: quantile %g outside [0,1]", q))
	}
	if r.sortedDelays == nil {
		r.sortedDelays = append([]float64(nil), r.Delays...)
		sort.Float64s(r.sortedDelays)
	}
	s := r.sortedDelays
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// ErrSaturated is returned when a processor queue exceeds Config.MaxQueue,
// which in practice means the offered load exceeds the configuration's
// capacity.
var ErrSaturated = errors.New("sim: queue exceeded MaxQueue; system appears saturated")

// Run drives net through the workload until Samples post-warmup delays
// are collected, and returns the measured metrics.
//
// net must be idle (freshly constructed): grants held by a previous run
// are never released by a later one, so reusing a network leaks
// capacity and biases the measurement toward saturation.
//
// The kernel is allocation-free in steady state: processor state lives
// in struct-of-arrays form (procTable), queued tasks in a free-list
// arena (taskArena), in-flight grants in the slot-reusing grantTable,
// and the calendar event queue retains its capacity — so once the
// structures have grown to the run's peak backlog, the event loop
// performs zero heap allocations. arena_test.go pins this with
// testing.AllocsPerRun and a whole-run malloc-delta check, and the
// kernel differential matrix in kernel_diff_test.go proves the layout
// changed no observable byte: Results and obs traces are identical to
// the retained pre-refactor kernel on the binary heap (runOracle).
func Run(net core.Network, cfg Config) (res Result, err error) {
	// Invariant violations inside the network models and accumulators
	// surface as panics (invariant.Assert, stats.ErrTimeBackwards);
	// convert the ones we recognize into errors and re-raise the rest.
	defer func() {
		if r := recover(); r != nil {
			if verr := invariant.ClassifyPanic(r); verr != nil {
				res, err = Result{}, fmt.Errorf("sim: %w", verr)
				return
			}
			panic(r)
		}
	}()
	p := net.Processors()
	if err := cfg.validate(p); err != nil {
		return Result{}, err
	}
	return newKernel(net, cfg).run()
}

// validate rejects configurations the kernel cannot run. Every float
// input must be finite: NaN compares false against every bound, so it
// would slip past the sign checks, and a NaN or infinite rate, warmup,
// or jitter either stalls the event loop (the warmup cut or the sample
// count is never reached) or silently empties the run.
func (cfg *Config) validate(p int) error {
	if !finite(cfg.Lambda) || !finite(cfg.MuN) || !finite(cfg.MuS) ||
		cfg.Lambda < 0 || cfg.MuN <= 0 || cfg.MuS <= 0 {
		return fmt.Errorf("sim: invalid rates λ=%g μn=%g μs=%g", cfg.Lambda, cfg.MuN, cfg.MuS)
	}
	if cfg.Lambdas != nil && len(cfg.Lambdas) != p {
		return fmt.Errorf("sim: Lambdas has %d entries for %d processors", len(cfg.Lambdas), p)
	}
	for pid, r := range cfg.Lambdas {
		if !finite(r) || r < 0 {
			return fmt.Errorf("sim: invalid arrival rate %g for processor %d", r, pid)
		}
	}
	if !finite(cfg.Warmup) {
		return fmt.Errorf("sim: invalid warmup %g", cfg.Warmup)
	}
	if !finite(cfg.RetryJitter) {
		return fmt.Errorf("sim: invalid retry jitter %g", cfg.RetryJitter)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// kernel is the state of one simulation run. Its methods are the
// layers of the event loop: schedule files events into the pending
// queue, the on* handlers process one popped event each, tryStart
// attempts an allocation, and wake retries the blocked waiters after a
// release.
type kernel struct {
	net   core.Network
	cfg   Config
	rates []float64 // per-processor arrival rates (cfg.Lambdas or Lambda everywhere)
	p     int
	src   *rng.Source

	pt     *procTable
	grants *grantTable
	q      *calendarQueue
	seq    uint64 // FIFO counter of the next scheduled event
	now    float64

	// Incremental wake engine state. blocked tracks exactly the
	// processors that are idle with a nonempty queue — the ones whose
	// last allocation attempt failed and that a release could unblock.
	blocked     *waiterSet
	hinter      core.AvailabilityHinter
	wakeScratch []int // WakeRandom permutation buffer
	rrStart     int   // WakeRoundRobin starting processor
	retryPend   []bool

	// Block-aware wake state (see wake). bh is the network's block hint,
	// nil when it has none: the waiters then form one block that no
	// pass ever finds hopeless. dead marks the deferred blocks: found
	// hopeless by a pass they were not touched in, skipped since, and
	// owing every pass after paid[b].
	bh     core.BlockHinter
	dead   []uint64
	ndead  int // deferred blocks; 0 lets touch skip the lookup
	paid   []int64
	passes int64 // wake passes run so far

	// headSince[pid] is the simulated time pid's current head-of-queue
	// task became eligible to transmit: the first instant the engine
	// could attempt allocation for it (task at the head AND processor
	// idle). It feeds the per-request latency attribution — the span
	// arrival → headSince is queue wait behind the processor's earlier
	// tasks, headSince → transmit start is network blocking.
	headSince []float64

	// Probe support. In-network rejects (the Omega reject/reroute) become
	// probe events by reading the requesting processor's reject counter
	// before and after its Acquire: for a network that implements
	// core.RejectSource, one O(1) lookup each however many sub-networks
	// the system has. rej is resolved by core.RejectsOf only when a
	// probe is attached, so the nil-probe path stays a single branch per
	// site.
	probe obs.Probe
	rej   core.RejectSource

	delays    *stats.BatchMeans
	responses *stats.BatchMeans
	kept      []float64 // raw delay samples (cfg.CollectDelays)
	collected int
	completed int64
	queueLen  stats.TimeWeighted
	busyTW    stats.TimeWeighted
	totalQ    int
	busyPorts int
	warmedUp  bool

	// Full-run flow counters for the conservation invariant; unlike
	// completed they are never reset at warmup.
	arrivedTotal int64
	servedTotal  int64
	inService    int
}

// newKernel prepares a run of net under cfg (already validated) on a
// fresh calendar event queue.
func newKernel(net core.Network, cfg Config) *kernel {
	if cfg.Samples <= 0 {
		cfg.Samples = 100000
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = cfg.Samples / 30
		if cfg.BatchSize == 0 {
			cfg.BatchSize = 1
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 1 << 20
	}
	p := net.Processors()
	rates := cfg.Lambdas
	if rates == nil {
		rates = make([]float64, p)
		for i := range rates {
			rates[i] = cfg.Lambda
		}
	}
	// One arrival timer per processor is always pending, so p sizes the
	// queue's event arena the way it sizes the processor table.
	k := &kernel{
		net:       net,
		cfg:       cfg,
		rates:     rates,
		p:         p,
		src:       rng.New(cfg.Seed),
		pt:        newProcTable(p, p),
		grants:    newGrantTable(),
		q:         newCalendarQueue(p),
		retryPend: make([]bool, p),
		headSince: make([]float64, p),
		probe:     cfg.Probe,
		delays:    stats.NewBatchMeans(int64(cfg.BatchSize)),
		responses: stats.NewBatchMeans(int64(cfg.BatchSize)),
	}
	k.hinter, _ = net.(core.AvailabilityHinter)
	span := p
	if bh, ok := net.(core.BlockHinter); ok {
		k.bh = bh
		if s := bh.HintSpan(); s < p {
			if s <= 0 {
				panic(fmt.Sprintf("sim: %s reports hint span %d", net.Name(), s))
			}
			span = s
		}
	}
	k.blocked = newWaiterSet(p, span)
	k.dead = make([]uint64, len(k.blocked.blocks))
	k.paid = make([]int64, len(k.blocked.count))
	if cfg.WakePolicy == WakeRandom {
		k.wakeScratch = make([]int, p)
	}
	if k.probe != nil {
		k.rej = core.RejectsOf(net)
	}
	// Steady-state zero-allocation support: the batch-means slices are
	// the only unbounded accumulators left, so reserve their full-run
	// capacity up front (one batch mean per BatchSize samples, plus the
	// in-progress batch).
	k.delays.Reserve(cfg.Samples/cfg.BatchSize + 1)
	k.responses.Reserve(cfg.Samples/cfg.BatchSize + 1)
	if cfg.CollectDelays {
		k.kept = make([]float64, 0, cfg.Samples)
	}
	k.queueLen.Set(0, 0)
	k.busyTW.Set(0, 0)
	return k
}

// run schedules every processor's first arrival, processes events until
// Samples post-warmup delays are collected, and assembles the Result.
func (k *kernel) run() (Result, error) {
	for pid := 0; pid < k.p; pid++ {
		if k.rates[pid] > 0 {
			k.schedule(k.src.Exp(k.rates[pid]), evArrival, pid, 0)
		}
	}

	//lint:hotpath the event loop — everything below runs once per simulated event
	for k.collected < k.cfg.Samples {
		if k.q.len() == 0 {
			break // λ == 0: nothing will ever happen
		}
		e := k.q.pop()
		if invariant.Enabled() {
			if verr := invariant.NonDecreasing("sim", k.now, e.time); verr != nil {
				return Result{}, verr
			}
		}
		k.now = e.time
		if !k.warmedUp && k.now >= k.cfg.Warmup {
			k.warmedUp = true
			k.queueLen.Reset()
			k.busyTW.Reset()
			k.completed = 0
		}
		switch e.kind() {
		case evArrival:
			if err := k.onArrival(int(e.pid)); err != nil {
				k.settleAll()
				return Result{}, err
			}
		case evTxDone:
			k.onTxDone(int(e.pid), int(e.gidx))
		case evSvcDone:
			k.onSvcDone(int(e.gidx))
		case evRetry:
			k.retryPend[e.pid] = false
			k.touch(int(e.pid))
			k.tryStart(int(e.pid))
		}
		if invariant.Enabled() {
			if verr := blockedInvariant(k.pt, k.blocked); verr != nil {
				return Result{}, verr
			}
			if verr := k.pt.checkChains(); verr != nil {
				return Result{}, verr
			}
		}
	}

	if invariant.Enabled() {
		inFlight := int64(k.totalQ + k.busyPorts + k.inService)
		if verr := invariant.Conserved("sim", k.arrivedTotal, k.servedTotal, inFlight); verr != nil {
			return Result{}, verr
		}
		if out := k.grants.outstanding(); out != k.busyPorts+k.inService {
			return Result{}, invariant.Errorf("sim",
				"grant table leak: %d outstanding grants for %d tasks holding the network", out, k.busyPorts+k.inService)
		}
	}
	return k.result(), nil
}

// result assembles the run's Result from the closed accumulators.
func (k *kernel) result() Result {
	k.settleAll() // the telemetry read below must include every deferred probe
	res := Result{
		Delay:     k.delays.Interval(0.95),
		Response:  k.responses.Interval(0.95),
		Completed: k.completed,
		SimTime:   k.now,
		Delays:    k.kept,
	}
	res.MeanQueue = k.queueLen.Finish(k.now)
	res.Utilization = k.busyTW.Finish(k.now) / float64(k.net.Ports())
	res.NormalizedDelay = stats.CI{
		Mean:     res.Delay.Mean * k.cfg.MuS,
		HalfWide: res.Delay.HalfWide * k.cfg.MuS,
		N:        res.Delay.N,
	}
	if ts, ok := k.net.(core.TelemetrySource); ok {
		res.Telemetry = ts.Telemetry()
	}
	if ds, ok := k.net.(core.DetailSource); ok {
		res.Details = ds.DetailCounters()
	}
	if k.cfg.ExportAccumulators {
		// queueLen/busyTW windows are closed (Finish above), so the
		// copies are stable snapshots ready for window stitching.
		res.Accum = &Accum{
			Delays:    k.delays,
			Responses: k.responses,
			QueueLen:  k.queueLen,
			BusyPorts: k.busyTW,
			Ports:     k.net.Ports(),
		}
	}
	return res
}

// schedule files an event of the given kind at time t, stamped with the
// next FIFO tie-breaker.
//
//lint:hotpath one call per simulated event
func (k *kernel) schedule(t float64, kind eventKind, pid, gidx int) {
	k.q.push(event{time: t, seq: packSeq(k.seq, kind), pid: int32(pid), gidx: int32(gidx)})
	k.seq++
}

// setQ updates the queued-task count and its time-weighted accumulator.
//
//lint:hotpath
func (k *kernel) setQ(delta int) {
	k.totalQ += delta
	k.queueLen.Set(k.now, float64(k.totalQ))
}

// setBusy updates the busy-port count and its time-weighted accumulator.
//
//lint:hotpath
func (k *kernel) setBusy(delta int) {
	k.busyPorts += delta
	k.busyTW.Set(k.now, float64(k.busyPorts))
}

// onArrival queues a new task at pid, attempts to start it, and
// schedules the processor's next arrival. It fails with ErrSaturated
// when the queue reaches MaxQueue.
//
//lint:hotpath
func (k *kernel) onArrival(pid int) error {
	req := k.arrivedTotal
	k.arrivedTotal++
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindArrival, Pid: pid, Port: -1, Req: req})
	}
	if k.pt.qlen[pid] == 0 && !k.pt.transmitting[pid] {
		// The task heads an empty queue on an idle processor: it is
		// eligible to transmit the instant it arrives.
		k.headSince[pid] = k.now
	}
	k.pt.push(pid, k.now, req)
	k.setQ(1)
	//lint:coldpath saturation abort, terminates the run
	if k.pt.queued(pid) >= k.cfg.MaxQueue {
		return fmt.Errorf("%w (processor %d, t=%g)", ErrSaturated, pid, k.now)
	}
	// The task has joined its processor's queue; report that before the
	// allocation attempt so probes see the causal order enqueue → grant.
	// Aux is the queue length including this task.
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindEnqueue, Pid: pid, Port: -1, Req: req, Aux: int64(k.pt.queued(pid))})
	}
	k.touch(pid)
	k.tryStart(pid)
	k.schedule(k.now+k.src.Exp(k.rates[pid]), evArrival, pid, 0)
	return nil
}

// onTxDone ends pid's transmission: the path is released, the task
// enters service, and the freed path may unblock waiters.
//
//lint:hotpath
func (k *kernel) onTxDone(pid, gidx int) {
	g := k.grants.get(gidx)
	k.touch(pid)
	k.net.ReleasePath(g)
	k.pt.transmitting[pid] = false
	if k.pt.qlen[pid] > 0 {
		// The processor turned idle with work still queued: it is now a
		// blocked waiter (its next task has not been granted), so
		// register it before the wake below. Its head-of-queue task
		// becomes eligible to transmit now.
		k.blocked.add(pid)
		k.headSince[pid] = k.now
	}
	k.setBusy(-1)
	k.inService++
	k.grants.markTx(gidx, k.now)
	k.schedule(k.now+k.src.Exp(k.cfg.MuS), evSvcDone, 0, gidx)
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindTransmitEnd, Pid: pid, Port: g.Port, Req: k.grants.attr[gidx].req})
	}
	// The freed path (and bus) may unblock queued tasks, including this
	// processor's own next task.
	k.wake(pid)
}

// onSvcDone completes a task's service: the resource is released, the
// response time is recorded, and the freed resource may unblock
// waiters.
//
//lint:hotpath
func (k *kernel) onSvcDone(gidx int) {
	s := k.grants.take(gidx)
	k.touch(s.g.Processor)
	k.net.ReleaseResource(s.g)
	k.inService--
	k.servedTotal++
	k.completed++
	// Response estimates use only tasks whose whole lifetime lies in the
	// measurement window: a task that arrived before the warmup cut
	// carries transient queueing in its response and would bias the
	// steady-state mean.
	if k.warmedUp && s.arrived >= k.cfg.Warmup {
		k.responses.Add(k.now - s.arrived)
	}
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		now := k.now
		// take left the slot's attribution entry in place; nothing can
		// reuse the slot before the next put.
		a := &k.grants.attr[gidx]
		k.probe.Event(obs.Event{T: now, Kind: obs.KindRelease, Pid: s.g.Processor, Port: s.g.Port, Req: a.req, Dur: now - s.txDone})
		// Close the request with its exact latency attribution. resp is
		// the same expression the Response estimator consumes, tx/svc
		// telescope between the stored stamps; the fixup loop nudges svc
		// until the left-to-right sum (wait+block)+tx+svc reproduces
		// resp bit for bit.
		resp := now - s.arrived
		tx := s.txDone - a.txStart
		svc := now - s.txDone
		partial := (a.wait + a.block) + tx
		for i := 0; i < 8 && partial+svc != resp; i++ {
			svc += resp - (partial + svc)
		}
		var measured int64
		if k.warmedUp && s.arrived >= k.cfg.Warmup {
			measured = 1
		}
		k.probe.Event(obs.Event{
			T: now, Kind: obs.KindComplete, Pid: s.g.Processor, Port: s.g.Port,
			Req: a.req, Aux: measured, Dur: resp,
			Wait: a.wait, Block: a.block, Tx: tx, Svc: svc,
		})
	}
	// The freed resource may unblock queued tasks.
	k.wake(s.g.Processor)
}

// startTx begins transmission for pid's head-of-queue task (already
// granted). Returns the queueing delay of the task.
//
//lint:hotpath grant-to-transmission turnaround
func (k *kernel) startTx(pid int, g core.Grant) float64 {
	eligibleAt := k.headSince[pid]
	arrivedAt, req := k.pt.popFront(pid)
	k.setQ(-1)
	k.pt.transmitting[pid] = true
	k.setBusy(1)
	gi := k.grants.put(g, arrivedAt)
	k.schedule(k.now+k.src.Exp(k.cfg.MuN), evTxDone, pid, gi)
	d := k.now - arrivedAt
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		// Latency attribution: split d into queue wait (arrival →
		// eligible) and network blocking (eligible → now). arrivedAt ≤
		// eligibleAt ≤ now, and IEEE subtraction is monotone in the
		// subtrahend, so 0 ≤ block ≤ d without clamping; the fixup loop
		// then nudges wait until wait+block reproduces d bit for bit
		// (one float64 subtraction is almost always enough — the loop is
		// a guard against the rare double rounding).
		block := k.now - eligibleAt
		wait := d - block
		for i := 0; i < 8 && wait+block != d; i++ {
			wait += d - (wait + block)
		}
		k.grants.setAttr(gi, grantAttr{req: req, txStart: k.now, wait: wait, block: block})
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindTransmitStart, Pid: pid, Port: g.Port, Req: req, Dur: d})
	}
	return d
}

// recordDelay adds one queueing-delay sample once the run is warm.
//
//lint:hotpath per-sample delay recording
func (k *kernel) recordDelay(d float64) {
	if !k.warmedUp {
		return
	}
	k.delays.Add(d)
	if k.cfg.CollectDelays {
		//lint:ignore hotalloc kept has full-run capacity reserved in newKernel; pinned by TestRunSteadyStateZeroAlloc
		k.kept = append(k.kept, d)
	}
	k.collected++
}

// tryStart attempts to begin transmission for pid if it has queued work
// and is idle, registering pid as a blocked waiter when the attempt
// fails and clearing it on a grant.
//
//lint:hotpath allocation attempt, runs on every arrival and wake
func (k *kernel) tryStart(pid int) bool {
	if k.pt.transmitting[pid] || k.pt.qlen[pid] == 0 {
		return false
	}
	if k.hinter != nil && k.hinter.AcquireWouldFail(pid) {
		// The network's status broadcast says the attempt is hopeless;
		// per the core.AvailabilityHinter contract the hinter has
		// already accounted the probe in telemetry exactly as the failed
		// Acquire would have, so skipping the call leaves results
		// bit-for-bit unchanged. Fast-failed probes never enter the
		// network, so they produce no in-network rejects — matching the
		// Acquire paths the hint short-circuits, which reject-count
		// before routing.
		k.blocked.add(pid)
		return false
	}
	var rejBefore int64
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		rejBefore = k.rej.Rejects(pid)
	}
	g, ok := k.net.Acquire(pid)
	if !ok {
		//lint:coldpath probe emission, nil on the measured fast path
		if k.probe != nil {
			if rej := k.rej.Rejects(pid) - rejBefore; rej > 0 {
				k.probe.Event(obs.Event{T: k.now, Kind: obs.KindReject, Pid: pid, Port: -1, Req: k.pt.arena.req[k.pt.qhead[pid]], Aux: rej})
			}
		}
		k.blocked.add(pid)
		return false
	}
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindGrant, Pid: pid, Port: g.Port, Req: k.pt.arena.req[k.pt.qhead[pid]], Aux: k.rej.Rejects(pid) - rejBefore})
	}
	k.blocked.remove(pid)
	k.recordDelay(k.startTx(pid, g))
	return true
}

// wake retries blocked processors after processor released's grant
// freed its path or resource. It visits only the registered blocked
// waiters, in the exact order a full rescan of all p processors would
// reach them (the pre-incremental engine, frozen in
// kernel_oracle_test.go), so results are bit-for-bit identical:
//
//   - tryStart is a strict no-op (no Acquire, no RNG draw) for any
//     processor that is transmitting or has an empty queue, so
//     skipping non-waiters cannot change state, telemetry, or the
//     random stream;
//   - within a pass grants only consume network capacity, so no
//     processor becomes blocked mid-pass and the waiter set only loses
//     the members the pass itself grants;
//   - the full-rescan engine repeats passes while any pass made
//     progress, and its hopeless re-probes land in network telemetry,
//     so this engine repeats identically rather than stopping early;
//   - WakeRandom draws a full permutation per pass either way
//     (PermInto consumes exactly Perm's variates) and filters it by
//     membership, preserving the RNG stream.
//
// The walk is block-aware (core.BlockHinter). A block whose hint
// answers "hopeless" at the start of a pass stays hopeless all pass:
// only grants and releases inside the block change its answer, and a
// hopeless block grants nothing. Its waiters' probes would only add
// telemetry — no Acquire, no probe event, no random draw — so classify
// charges them in bulk: at once for the touched block (released's
// block, whose network the release changed), and for any other block
// lazily, by deferring it. A deferred
// block is skipped by every later pass until touch settles its debt
// with one call, before an arrival, retry or release next reaches it.
// Telemetry counters are sums, so moving those additions in time
// changes no result. Blocks whose hint answers "live" — Omega blocks
// whose waiters path-block inside the boxes — are walked waiter by
// waiter as before, keeping every reject event and LaneRandom draw in
// place.
//
// With RetryJitter set, retries are instead scheduled after independent
// exponential delays — the paper's de-synchronization suggestion —
// visiting every waiter in ascending order, hopeless or not (each
// retry draws a delay), so no pass runs and nothing is deferred.
//
//lint:hotpath post-release retry engine
func (k *kernel) wake(released int) {
	if k.cfg.RetryJitter > 0 {
		k.walk(0, k.p, -1)
		return
	}
	if k.cfg.WakePolicy == WakeRoundRobin {
		k.rrStart = (k.rrStart + 1) % k.p
	}
	touched := int(k.blocked.block[released])
	for progress := true; progress; {
		// A pass over no waiters changes nothing, except that WakeRandom
		// draws its permutation all the same.
		if k.blocked.empty() && k.cfg.WakePolicy != WakeRandom {
			return
		}
		k.passes++
		skip := k.classify(touched)
		switch k.cfg.WakePolicy {
		case WakeIndexOrder:
			progress = k.walk(0, k.p, skip)
		case WakeRoundRobin:
			progress = k.walk(k.rrStart, k.p, skip)
			if k.walk(0, k.rrStart, skip) {
				progress = true
			}
		case WakeRandom:
			progress = false
			k.src.PermInto(k.wakeScratch)
			for _, pid := range k.wakeScratch {
				if k.blocked.contains(pid) {
					b := int(k.blocked.block[pid])
					if b != skip && !k.deferred(b) && k.tryStart(pid) {
						progress = true
					}
				}
			}
		}
	}
}

// classify opens a wake pass: it asks the block hint about every block
// with waiters that is not deferred yet. A hopeless touched block has
// its waiters charged for this pass in one call and is returned, for
// the pass to skip; a hopeless untouched block is deferred from this
// pass on. It returns -1 when the touched block is live.
//
//lint:hotpath once per wake pass
func (k *kernel) classify(touched int) (skip int) {
	skip = -1
	if k.bh == nil {
		return skip
	}
	span := k.blocked.span
	for b := k.nextLive(0); b != -1; b = k.nextLive(b + 1) {
		if b == touched {
			if k.bh.AcquireWouldFailN(b*span, k.blocked.count[b]) {
				skip = b
			}
		} else if k.bh.AcquireWouldFailN(b*span, 0) {
			k.dead[b>>6] |= 1 << uint(b&63)
			k.ndead++
			k.paid[b] = k.passes - 1
		}
	}
	return skip
}

// walk visits the waiters in [lo, hi) in ascending order, except those
// of deferred blocks and of block skip, and reports whether any was
// granted.
//
//lint:hotpath one wake pass
func (k *kernel) walk(lo, hi, skip int) (progress bool) {
	jitter, span := k.cfg.RetryJitter > 0, k.blocked.span
	for b := k.nextLive(int(k.blocked.block[lo])); b != -1 && b*span < hi; b = k.nextLive(b + 1) {
		if b == skip {
			continue
		}
		end := min((b+1)*span, hi)
		for pid := k.blocked.next(max(lo, b*span)); pid != -1 && pid < end; pid = k.blocked.next(pid + 1) {
			if jitter {
				k.retryLater(pid)
			} else if k.tryStart(pid) {
				progress = true
			}
		}
	}
	return progress
}

// retryLater schedules pid's allocation attempt after an exponential
// RetryJitter delay, unless one is already pending.
//
//lint:hotpath
func (k *kernel) retryLater(pid int) {
	if !k.retryPend[pid] {
		k.retryPend[pid] = true
		k.schedule(k.now+k.src.Exp(1/k.cfg.RetryJitter), evRetry, pid, 0)
	}
}

// nextLive returns the smallest block ≥ from that has waiters and is
// not deferred, or -1.
//
//lint:hotpath
func (k *kernel) nextLive(from int) int {
	blocks := k.blocked.blocks
	for w := from >> 6; w < len(blocks); w++ {
		word := blocks[w] &^ k.dead[w]
		if w == from>>6 {
			word = word >> uint(from&63) << uint(from&63)
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// deferred reports whether block b is deferred.
//
//lint:hotpath
func (k *kernel) deferred(b int) bool { return k.dead[b>>6]&(1<<uint(b&63)) != 0 }

// touch settles the block of pid before an arrival, retry or release
// changes its waiters or its network state.
//
//lint:hotpath runs before every arrival, retry and release
func (k *kernel) touch(pid int) {
	if k.ndead != 0 {
		k.settle(int(k.blocked.block[pid]))
	}
}

// settle pays block b's debt if it is deferred: one hopeless probe per
// waiter for every pass since paid[b], in one call. Nothing has touched
// the block since it was deferred, so it is still hopeless and its
// waiters are still the ones those passes skipped.
//
//lint:hotpath
func (k *kernel) settle(b int) {
	if !k.deferred(b) {
		return
	}
	k.dead[b>>6] &^= 1 << uint(b&63)
	k.ndead--
	owed := (k.passes - k.paid[b]) * int64(k.blocked.count[b])
	hopeless := k.bh.AcquireWouldFailN(b*k.blocked.span, int(owed))
	if invariant.Enabled() {
		invariant.Assert(hopeless, "sim", "deferred block %d turned live before it was settled", b)
	}
}

// settleAll settles every deferred block, so network telemetry holds
// every probe the wake passes made.
func (k *kernel) settleAll() {
	for w, word := range k.dead {
		for ; word != 0; word &= word - 1 {
			k.settle(w<<6 + bits.TrailingZeros64(word))
		}
	}
}

// grantTable stores outstanding grants (and their tasks' arrival times)
// indexed by small reusable ints so events stay value types.
type grantTable struct {
	slots []grantSlot
	free  []int

	// attr is the latency-attribution side table, parallel to slots and
	// written by setAttr only when a probe is attached: the nil-probe
	// fast path and the oracle kernel never touch it, so their slots
	// stay small and take copies only what they read.
	attr []grantAttr
}

type grantSlot struct {
	g       core.Grant
	arrived float64
	txDone  float64 // when transmission ended (service span start)
}

// grantAttr is one grant's latency-attribution payload.
type grantAttr struct {
	req     int64
	txStart float64
	wait    float64 // queue-wait phase, fixed up so wait+block == delay d
	block   float64 // network-blocking phase
}

func newGrantTable() *grantTable { return &grantTable{} }

//lint:hotpath
func (t *grantTable) put(g core.Grant, arrived float64) int {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		t.slots[i] = grantSlot{g: g, arrived: arrived}
		return i
	}
	//lint:ignore hotalloc slot growth stops at the run's peak concurrency; pinned by TestHotStructuresZeroAlloc
	t.slots = append(t.slots, grantSlot{g: g, arrived: arrived})
	return len(t.slots) - 1
}

//lint:hotpath
func (t *grantTable) get(i int) core.Grant { return t.slots[i].g }

// setAttr stores slot i's latency-attribution payload. Every put of a
// probed run is followed by setAttr on the same slot, so the entry a
// later read finds is always the current grant's; the side table grows
// with slots and, like them, stops at the run's peak concurrency.
//
//lint:hotpath
func (t *grantTable) setAttr(i int, a grantAttr) {
	for len(t.attr) <= i {
		//lint:ignore hotalloc side-table growth stops at the run's peak concurrency; pinned by TestRunSteadyStateZeroAlloc (PART-OMEGA+probe)
		t.attr = append(t.attr, grantAttr{})
	}
	t.attr[i] = a
}

// markTx stamps the time slot i's transmission completed, so the
// service-release event can report the service span.
//
//lint:hotpath
func (t *grantTable) markTx(i int, tx float64) { t.slots[i].txDone = tx }

// outstanding counts grants currently held (put but not yet taken).
func (t *grantTable) outstanding() int { return len(t.slots) - len(t.free) }

//lint:hotpath
func (t *grantTable) take(i int) grantSlot {
	s := t.slots[i]
	t.slots[i] = grantSlot{}
	//lint:ignore hotalloc free-list append reuses capacity released by put; pinned by TestHotStructuresZeroAlloc
	t.free = append(t.free, i)
	return s
}

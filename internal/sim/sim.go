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
// refactor changed no observable byte: Results and obs traces are
// identical to the retained pre-refactor kernel (runOracle).
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
	if err := cfg.validate(net.Processors()); err != nil {
		return Result{}, err
	}
	return newKernel(net, cfg, newCalendarQueue()).run()
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
	q      eventQueue
	seq    uint64 // next event's FIFO tie-breaker
	now    float64

	// Incremental wake engine state. blocked tracks exactly the
	// processors that are idle with a nonempty queue — the ones whose
	// last allocation attempt failed and that a release could unblock.
	blocked     *waiterSet
	hinter      core.AvailabilityHinter
	wakeScratch []int // WakeRandom permutation buffer
	rrStart     int   // WakeRoundRobin starting processor
	retryPend   []bool

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

// newKernel prepares a run of net under cfg (already validated) with q
// as the pending-event structure. Production always passes the calendar
// queue; the parameter exists so this package's tests can drive the
// kernel with the binary-heap oracle.
func newKernel(net core.Network, cfg Config, q eventQueue) *kernel {
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
	k := &kernel{
		net:       net,
		cfg:       cfg,
		rates:     rates,
		p:         p,
		src:       rng.New(cfg.Seed),
		pt:        newProcTable(p, p),
		grants:    newGrantTable(),
		q:         q,
		blocked:   newWaiterSet(p),
		retryPend: make([]bool, p),
		headSince: make([]float64, p),
		probe:     cfg.Probe,
		delays:    stats.NewBatchMeans(int64(cfg.BatchSize)),
		responses: stats.NewBatchMeans(int64(cfg.BatchSize)),
	}
	k.hinter, _ = net.(core.AvailabilityHinter)
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
			k.schedule(event{time: k.src.Exp(k.rates[pid]), kind: evArrival, pid: pid})
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
		switch e.kind {
		case evArrival:
			if err := k.onArrival(e); err != nil {
				return Result{}, err
			}
		case evTxDone:
			k.onTxDone(e)
		case evSvcDone:
			k.onSvcDone(e)
		case evRetry:
			k.retryPend[e.pid] = false
			k.tryStart(e.pid)
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

// schedule stamps e with the next FIFO tie-breaker and files it.
//
//lint:hotpath one call per simulated event
func (k *kernel) schedule(e event) {
	e.seq = k.seq
	k.seq++
	k.q.push(e)
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

// onArrival queues a new task at e.pid, attempts to start it, and
// schedules the processor's next arrival. It fails with ErrSaturated
// when the queue reaches MaxQueue.
//
//lint:hotpath
func (k *kernel) onArrival(e event) error {
	req := k.arrivedTotal
	k.arrivedTotal++
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindArrival, Pid: e.pid, Port: -1, Req: req})
	}
	if k.pt.qlen[e.pid] == 0 && !k.pt.transmitting[e.pid] {
		// The task heads an empty queue on an idle processor: it is
		// eligible to transmit the instant it arrives.
		k.headSince[e.pid] = k.now
	}
	k.pt.push(e.pid, k.now, req)
	k.setQ(1)
	//lint:coldpath saturation abort, terminates the run
	if k.pt.queued(e.pid) >= k.cfg.MaxQueue {
		return fmt.Errorf("%w (processor %d, t=%g)", ErrSaturated, e.pid, k.now)
	}
	// The task has joined its processor's queue; report that before the
	// allocation attempt so probes see the causal order enqueue → grant.
	// Aux is the queue length including this task.
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindEnqueue, Pid: e.pid, Port: -1, Req: req, Aux: int64(k.pt.queued(e.pid))})
	}
	k.tryStart(e.pid)
	k.schedule(event{time: k.now + k.src.Exp(k.rates[e.pid]), kind: evArrival, pid: e.pid})
	return nil
}

// onTxDone ends e.pid's transmission: the path is released, the task
// enters service, and the freed path may unblock waiters.
//
//lint:hotpath
func (k *kernel) onTxDone(e event) {
	g := k.grants.get(e.gidx)
	k.net.ReleasePath(g)
	k.pt.transmitting[e.pid] = false
	if k.pt.qlen[e.pid] > 0 {
		// The processor turned idle with work still queued: it is now a
		// blocked waiter (its next task has not been granted), so
		// register it before the wake below. Its head-of-queue task
		// becomes eligible to transmit now.
		k.blocked.add(e.pid)
		k.headSince[e.pid] = k.now
	}
	k.setBusy(-1)
	k.inService++
	k.grants.markTx(e.gidx, k.now)
	k.schedule(event{time: k.now + k.src.Exp(k.cfg.MuS), kind: evSvcDone, gidx: e.gidx})
	//lint:coldpath probe emission, nil on the measured fast path
	if k.probe != nil {
		k.probe.Event(obs.Event{T: k.now, Kind: obs.KindTransmitEnd, Pid: e.pid, Port: g.Port, Req: k.grants.req(e.gidx)})
	}
	// The freed path (and bus) may unblock queued tasks, including this
	// processor's own next task.
	k.wake()
}

// onSvcDone completes a task's service: the resource is released, the
// response time is recorded, and the freed resource may unblock
// waiters.
//
//lint:hotpath
func (k *kernel) onSvcDone(e event) {
	s := k.grants.take(e.gidx)
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
		k.probe.Event(obs.Event{T: now, Kind: obs.KindRelease, Pid: s.g.Processor, Port: s.g.Port, Req: s.req, Dur: now - s.txDone})
		// Close the request with its exact latency attribution. resp is
		// the same expression the Response estimator consumes, tx/svc
		// telescope between the stored stamps; the fixup loop nudges svc
		// until the left-to-right sum (wait+block)+tx+svc reproduces
		// resp bit for bit.
		resp := now - s.arrived
		tx := s.txDone - s.txStart
		svc := now - s.txDone
		partial := (s.wait + s.block) + tx
		for i := 0; i < 8 && partial+svc != resp; i++ {
			svc += resp - (partial + svc)
		}
		var measured int64
		if k.warmedUp && s.arrived >= k.cfg.Warmup {
			measured = 1
		}
		k.probe.Event(obs.Event{
			T: now, Kind: obs.KindComplete, Pid: s.g.Processor, Port: s.g.Port,
			Req: s.req, Aux: measured, Dur: resp,
			Wait: s.wait, Block: s.block, Tx: tx, Svc: svc,
		})
	}
	// The freed resource may unblock queued tasks.
	k.wake()
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
	k.schedule(event{time: k.now + k.src.Exp(k.cfg.MuN), kind: evTxDone, pid: pid, gidx: gi})
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
		k.grants.setAttr(gi, req, k.now, wait, block)
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

// wake retries blocked processors after a release. It visits only the
// registered blocked waiters, in the exact order a full rescan of all
// p processors would reach them (the pre-incremental engine, frozen in
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
//     so this engine repeats identically rather than stopping early
//     (the AvailabilityHinter keeps those re-probes O(1));
//   - WakeRandom draws a full permutation per pass either way
//     (PermInto consumes exactly Perm's variates) and filters it by
//     membership, preserving the RNG stream.
//
// With RetryJitter set, retries are instead scheduled after independent
// exponential delays — the paper's de-synchronization suggestion —
// visiting waiters in ascending order.
//
//lint:hotpath post-release retry engine
func (k *kernel) wake() {
	if k.cfg.RetryJitter > 0 {
		for pid := k.blocked.next(0); pid != -1; pid = k.blocked.next(pid + 1) {
			if k.retryPend[pid] {
				continue
			}
			k.retryPend[pid] = true
			k.schedule(event{time: k.now + k.src.Exp(1/k.cfg.RetryJitter), kind: evRetry, pid: pid})
		}
		return
	}
	switch k.cfg.WakePolicy {
	case WakeIndexOrder:
		for progress := true; progress; {
			progress = false
			for pid := k.blocked.next(0); pid != -1; pid = k.blocked.next(pid + 1) {
				if k.tryStart(pid) {
					progress = true
				}
			}
		}
	case WakeRoundRobin:
		k.rrStart = (k.rrStart + 1) % k.p
		for progress := true; progress; {
			progress = false
			for pid := k.blocked.next(k.rrStart); pid != -1; pid = k.blocked.next(pid + 1) {
				if k.tryStart(pid) {
					progress = true
				}
			}
			for pid := k.blocked.next(0); pid != -1 && pid < k.rrStart; pid = k.blocked.next(pid + 1) {
				if k.tryStart(pid) {
					progress = true
				}
			}
		}
	case WakeRandom:
		for progress := true; progress; {
			progress = false
			k.src.PermInto(k.wakeScratch)
			for _, pid := range k.wakeScratch {
				if k.blocked.contains(pid) && k.tryStart(pid) {
					progress = true
				}
			}
		}
	}
}

// grantTable stores outstanding grants (and their tasks' arrival times)
// indexed by small reusable ints so events stay value types.
type grantTable struct {
	slots []grantSlot
	free  []int
}

type grantSlot struct {
	g       core.Grant
	arrived float64
	txDone  float64 // when transmission ended (service span start)

	// Latency-attribution payload, populated by setAttr only when a
	// probe is attached (the oracle kernel and the nil-probe fast path
	// never touch it; put zeroes it on slot reuse).
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

// setAttr stores slot i's latency-attribution payload: request id,
// transmit-start time, and the fixed-up queue-wait/network-blocking
// phases. Called only when a probe is attached; put's composite-literal
// assignment clears the fields on slot reuse, so the oracle kernel
// (which never calls setAttr) is unaffected.
//
//lint:hotpath
func (t *grantTable) setAttr(i int, req int64, txStart, wait, block float64) {
	s := &t.slots[i]
	s.req = req
	s.txStart = txStart
	s.wait = wait
	s.block = block
}

// req returns slot i's request id (meaningful only after setAttr).
//
//lint:hotpath
func (t *grantTable) req(i int) int64 { return t.slots[i].req }

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

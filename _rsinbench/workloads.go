package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sync"
	"time"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/cost"
	"rsin/internal/experiments"
	"rsin/internal/obs"
	"rsin/internal/queueing"
	"rsin/internal/runner"
	"rsin/internal/shard"
	"rsin/internal/sim"
	wl "rsin/internal/workload"
)

// The large-p operating point shared by omega4096, xbar4096_observed
// and omega4096_sharded: 64 independent 64-wide sub-networks, one
// resource per port, at ρ = 0.8 with μs/μn = 0.1 — the heavy-traffic
// side of the paper's curves, where blocking and waits grow fastest.
const (
	bigOmega   = "4096/64x64x64 OMEGA/1"
	bigXbar    = "4096/64x64x64 XBAR/1"
	bigRho     = 0.8
	bigMuN     = 1.0
	bigMuS     = 0.1
	bigWarmup  = 100
	bigSamples = 20000

	seqOps   = 8 // sim.Run ops per round of omega4096 and xbar4096_observed
	shardOps = 8 // RunSubs+Merge ops per round of omega4096_sharded

	attrTopK    = 10
	seriesDt    = 1.0
	seriesTicks = 512

	// paper_figs quality: between experiments.Quick (20k samples) and
	// experiments.Full (400k).
	figSamples     = 40000
	figWarmup      = 1000
	blockingTrials = 20000

	// sbusTolerance is how many confidence half-widths a simulated
	// 16/16x1x1 SBUS/2 ratio-sweep cell may lie from the exact Markov
	// value before the run counts as incorrect.
	sbusTolerance = 4.0
)

var bigLambda = queueing.LambdaForIntensity(bigRho, 4096, bigMuN, bigMuS, 4096)

// bigSim is op i's simulation config; its seed derives from the
// workload seed on point i, rep 0 (rep 1 seeds the network).
func bigSim(seed uint64, i int) sim.Config {
	return sim.Config{
		Lambda:  bigLambda,
		MuN:     bigMuN,
		MuS:     bigMuS,
		Seed:    runner.DeriveSeed(seed, i, 0),
		Warmup:  bigWarmup,
		Samples: bigSamples,
	}
}

// mode is how one round runs.
type mode int

const (
	plain    mode = iota // the workload as defined, layers untimed
	traced               // every layer behind the timing decorators
	probeOff             // as plain, with the workload's probes detached
)

func (m mode) String() string {
	return [...]string{"plain", "traced", "probe-off"}[m]
}

// workload is one benchmark workload: round does its fixed work once.
type workload struct {
	name string
	// nominalRound is a plain round's host time on the reference box
	// (two vCPUs); --seconds divided by it sets the number of rounds.
	nominalRound time.Duration
	// traceModes is the round cycle of a traced run: traced rounds give
	// the per-layer split, plain rounds the overhead baseline, and
	// probe-off rounds the probe cost.
	traceModes []mode
	round      func(b *bench, r *roundRec)
}

var workloads = []workload{
	{"paper_figs", 5500 * time.Millisecond, []mode{traced, plain}, paperFigsRound},
	{"omega4096", 2400 * time.Millisecond, []mode{traced, plain}, seqRound(bigOmega, false)},
	{"xbar4096_observed", 1900 * time.Millisecond, []mode{traced, plain, probeOff}, seqRound(bigXbar, true)},
	{"omega4096_sharded", 1000 * time.Millisecond, []mode{traced, plain, probeOff}, shardedRound},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// layerTotals sums what the traced rounds measured, per layer.
type layerTotals struct {
	calls        map[string]*netCalls       // decorator records: bus, crossbar, omega, core
	tel          map[string]*core.Telemetry // Result telemetry by network module
	probeEvents  int64
	probeNs      int64
	obsMergeNs   int64
	simRuns      int64
	simNs        int64
	simTimedNs   int64 // part of simNs spent inside timed network and probe calls
	simCompleted int64
	runnerJobs   int64
	runnerBusyNs int64
	runnerIdleNs int64
	runSubsNs    int64
	shardMergeNs int64
	buildNs      int64
	artifactNs   map[string]int64
}

var netModules = []string{"omega", "crossbar", "bus"}

func newLayerTotals() *layerTotals {
	l := &layerTotals{
		calls:      map[string]*netCalls{"core": {}},
		tel:        map[string]*core.Telemetry{},
		artifactNs: map[string]int64{},
	}
	for _, m := range netModules {
		l.calls[m] = &netCalls{}
		l.tel[m] = &core.Telemetry{}
	}
	return l
}

func (l *layerTotals) add(o *layerTotals) {
	for k, c := range o.calls {
		l.calls[k].add(*c)
	}
	for k, t := range o.tel {
		addTelemetry(l.tel[k], *t)
	}
	l.probeEvents += o.probeEvents
	l.probeNs += o.probeNs
	l.obsMergeNs += o.obsMergeNs
	l.simRuns += o.simRuns
	l.simNs += o.simNs
	l.simTimedNs += o.simTimedNs
	l.simCompleted += o.simCompleted
	l.runnerJobs += o.runnerJobs
	l.runnerBusyNs += o.runnerBusyNs
	l.runnerIdleNs += o.runnerIdleNs
	l.runSubsNs += o.runSubsNs
	l.shardMergeNs += o.shardMergeNs
	l.buildNs += o.buildNs
	for k, v := range o.artifactNs {
		l.artifactNs[k] += v
	}
}

func (l *layerTotals) snapshot() map[string]netCalls {
	s := make(map[string]netCalls, len(l.calls))
	for k, c := range l.calls {
		s[k] = *c
	}
	return s
}

// roundRec is one round: the workload's fixed work, done once.
type roundRec struct {
	mode   mode
	wall   time.Duration
	setup  time.Duration
	ops    []time.Duration
	alloc  uint64 // heap bytes allocated inside ops
	failed map[int]bool
	notes  []string
	simSum hash.Hash // digest of every op's simulated statistics
	obsSum hash.Hash // digest of every op's probe output
	layers *layerTotals
	span   int // the round's span id in traced rounds
}

func newRound(m mode) *roundRec {
	return &roundRec{mode: m, failed: map[int]bool{}, simSum: sha256.New(), obsSum: sha256.New(), layers: newLayerTotals(), span: -1}
}

// fail records a failed op; key identifies the op so that two failed
// checks on one op count once.
func (r *roundRec) fail(key int, msg string) {
	r.failed[key] = true
	r.notes = append(r.notes, msg)
}

// failOther records a failure that belongs to no single indexed op.
func (r *roundRec) failOther(msg string) { r.fail(-1-len(r.failed), msg) }

// op times fn as one operation and charges its heap allocation to it.
func (r *roundRec) op(fn func() error) (time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r.ops = append(r.ops, d)
	r.alloc += m1.TotalAlloc - m0.TotalAlloc
	return d, err
}

// seqRound is a round of sequential classic sim.Run ops on spec; with
// observed set, every op carries an attribution and a series recorder.
func seqRound(spec string, observed bool) func(*bench, *roundRec) {
	return func(b *bench, r *roundRec) {
		for i := 0; i < seqOps; i++ {
			if err := seqOp(b, r, spec, observed, i); err != nil {
				r.fail(i, fmt.Sprintf("op %d: %v", i, err))
			}
		}
	}
}

func seqOp(b *bench, r *roundRec, spec string, observed bool, i int) error {
	// Collecting before every op keeps the previous op's garbage out of
	// its timing and its peak RSS.
	runtime.GC()
	t0 := time.Now()
	cfg, err := config.Parse(spec)
	if err != nil {
		return err
	}
	opt := config.BuildOptions{Seed: runner.DeriveSeed(b.seed, i, 1)}
	var net core.Network
	if r.mode == traced {
		net, err = buildTimed(cfg, opt, r.layers.calls)
	} else {
		net, err = cfg.Build(opt)
	}
	if err != nil {
		return err
	}
	built := time.Now()
	sc := bigSim(b.seed, i)
	var attr *obs.AttrRecorder
	var series *obs.SeriesRecorder
	var tp *timedProbe
	if observed && r.mode != probeOff {
		attr = obs.NewAttrRecorder(attrTopK)
		series = obs.NewSeriesRecorder(cfg.Processors, seriesDt)
		series.Reserve(seriesTicks)
		sc.Probe = obs.Multi(attr, series)
		if r.mode == traced {
			tp = &timedProbe{inner: sc.Probe}
			sc.Probe = tp
		}
	}
	r.setup += time.Since(t0)

	before := r.layers.snapshot()
	var res sim.Result
	start := time.Now()
	d, err := r.op(func() (err error) {
		res, err = sim.Run(net, sc)
		return err
	})
	if err != nil {
		return err
	}
	if msg := checkResult(&res); msg != "" {
		r.fail(i, fmt.Sprintf("op %d: %s", i, msg))
	}
	digestResult(r.simSum, &res)
	if attr != nil {
		label := fmt.Sprintf("%s op%d", spec, i)
		att := attr.Report(label, sim.BlockingRows(res))
		ser := series.Finish(label, res.SimTime)
		if err := obs.WriteAttributions(r.obsSum, []obs.Attribution{att}); err != nil {
			return err
		}
		if err := obs.WriteSeries(r.obsSum, []obs.Series{ser}); err != nil {
			return err
		}
	}
	if r.mode != traced {
		return nil
	}
	l := r.layers
	kind := netKind(cfg.Type)
	l.buildNs += int64(built.Sub(t0))
	l.simRuns++
	l.simNs += int64(d)
	l.simCompleted += res.Completed
	addTelemetry(l.tel[kind], res.Telemetry)
	calls := map[string]callAgg{}
	delta := diffCalls(before, l.snapshot())
	k := delta[kind]
	timed := k.AcquireNs + k.HintNs + k.ReleaseNs
	calls[kind+".Acquire"] = callAgg{k.AcquireCalls, k.AcquireNs}
	calls[kind+".AcquireWouldFail"] = callAgg{k.HintCalls, k.HintNs}
	calls[kind+".Release"] = callAgg{k.ReleaseCalls, k.ReleaseNs}
	if cfg.Networks > 1 {
		timed += delta["core"].TelNs
		calls["core.Telemetry"] = callAgg{delta["core"].TelCalls, delta["core"].TelNs}
	} else {
		timed += k.TelNs
		calls[kind+".Telemetry"] = callAgg{k.TelCalls, k.TelNs}
	}
	if tp != nil {
		l.probeEvents += tp.events
		l.probeNs += tp.ns
		timed += tp.ns
		calls["obs.Probe.Event"] = callAgg{tp.events, tp.ns}
	}
	l.simTimedNs += timed
	b.span(r.span, "config.build", t0, built.Sub(t0), nil)
	b.span(r.span, "sim.Run", start, d, calls)
	return nil
}

func diffCalls(before, after map[string]netCalls) map[string]netCalls {
	out := make(map[string]netCalls, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = netCalls{
			AcquireCalls: a.AcquireCalls - b.AcquireCalls,
			AcquireOK:    a.AcquireOK - b.AcquireOK,
			AcquireNs:    a.AcquireNs - b.AcquireNs,
			HintCalls:    a.HintCalls - b.HintCalls,
			HintTrue:     a.HintTrue - b.HintTrue,
			HintNs:       a.HintNs - b.HintNs,
			ReleaseCalls: a.ReleaseCalls - b.ReleaseCalls,
			ReleaseNs:    a.ReleaseNs - b.ReleaseNs,
			TelCalls:     a.TelCalls - b.TelCalls,
			TelNs:        a.TelNs - b.TelNs,
		}
	}
	return out
}

// shardedRound is a round of shard.RunSubs+Merge ops on the Omega
// system, Shards = Workers, with per-sub recorders merged through the
// obs shard merges (unless probes are off).
func shardedRound(b *bench, r *roundRec) {
	for i := 0; i < shardOps; i++ {
		if err := shardedOp(b, r, i); err != nil {
			r.fail(i, fmt.Sprintf("op %d: %v", i, err))
		}
	}
}

func shardedOp(b *bench, r *roundRec, i int) error {
	runtime.GC()
	t0 := time.Now()
	cfg, err := config.Parse(bigOmega)
	if err != nil {
		return err
	}
	parsed := time.Now()
	sc := shard.Config{Net: cfg, Sim: bigSim(b.seed, i), Shards: b.workers, Workers: b.workers}
	plan, err := shard.BuildPlan(sc)
	if err != nil {
		return err
	}
	var (
		attrs  []*obs.AttrRecorder
		series []*obs.SeriesRecorder
		tps    []*timedProbe
	)
	if r.mode != probeOff {
		probes := make([]obs.Probe, plan.Subs)
		attrs = make([]*obs.AttrRecorder, plan.Subs)
		series = make([]*obs.SeriesRecorder, plan.Subs)
		tps = make([]*timedProbe, plan.Subs)
		for s := range probes {
			attrs[s] = obs.NewAttrRecorder(attrTopK)
			series[s] = obs.NewSeriesRecorder(plan.SubNet.Processors, seriesDt)
			series[s].Reserve(seriesTicks)
			probes[s] = obs.Multi(attrs[s], series[s])
			if r.mode == traced {
				tps[s] = &timedProbe{inner: probes[s]}
				probes[s] = tps[s]
			}
		}
		sc.Probe = func(s int) obs.Probe { return probes[s] }
	}
	r.setup += time.Since(t0)

	label := fmt.Sprintf("%s op%d", bigOmega, i)
	var (
		merged  sim.Result
		ser     obs.Series
		mergedA *obs.AttrRecorder
		stamps  [4]time.Time
	)
	d, err := r.op(func() error {
		stamps[0] = time.Now()
		p, results, err := shard.RunSubs(sc)
		if err != nil {
			return err
		}
		plan = p
		stamps[1] = time.Now()
		if merged, err = shard.Merge(plan, bigMuS, results); err != nil {
			return err
		}
		stamps[2] = time.Now()
		if attrs != nil {
			mergedA = obs.NewAttrRecorder(attrTopK)
			runs := make([]obs.Series, plan.Subs)
			for s := range attrs {
				mergedA.Merge(attrs[s], s, plan.PidOff[s], plan.PortOff[s])
				runs[s] = series[s].Finish(fmt.Sprintf("sub%02d", s), results[s].SimTime)
			}
			if ser, err = obs.MergeSeries(label, runs); err != nil {
				return err
			}
		}
		stamps[3] = time.Now()
		return nil
	})
	if err != nil {
		return err
	}
	if msg := checkResult(&merged); msg != "" {
		r.fail(i, fmt.Sprintf("op %d: %s", i, msg))
	}
	digestResult(r.simSum, &merged)
	if mergedA != nil {
		att := mergedA.Report(label, sim.BlockingRows(merged))
		if err := obs.WriteAttributions(r.obsSum, []obs.Attribution{att}); err != nil {
			return err
		}
		if err := obs.WriteSeries(r.obsSum, []obs.Series{ser}); err != nil {
			return err
		}
	}
	if r.mode != traced {
		return nil
	}
	// shard.RunSubs takes no runner.Telemetry, so its job windows are
	// read off the probes: a job runs its subs back to back, from the
	// first sub's first event to the last sub's last event.
	l := r.layers
	runSubs := stamps[1].Sub(stamps[0])
	var busy, events, probeNs int64
	for _, g := range plan.Groups {
		first, last := tps[g[0]].first, tps[g[1]-1].last
		busy += int64(last.Sub(first))
		for s := g[0]; s < g[1]; s++ {
			l.simNs += int64(tps[s].last.Sub(tps[s].first))
			events += tps[s].events
			probeNs += tps[s].ns
		}
	}
	l.buildNs += int64(parsed.Sub(t0))
	l.simRuns += int64(plan.Subs)
	l.simCompleted += merged.Completed
	l.simTimedNs += probeNs
	l.probeEvents += events
	l.probeNs += probeNs
	l.runnerJobs += int64(len(plan.Groups))
	l.runnerBusyNs += busy
	l.runnerIdleNs += int64(b.workers)*int64(runSubs) - busy
	l.runSubsNs += int64(runSubs)
	l.shardMergeNs += int64(stamps[2].Sub(stamps[1]))
	l.obsMergeNs += int64(stamps[3].Sub(stamps[2]))
	addTelemetry(l.tel["omega"], merged.Telemetry)
	b.span(r.span, "config.Parse", t0, parsed.Sub(t0), nil)
	op := b.span(r.span, "op", stamps[0], d, nil)
	b.span(op, "shard.RunSubs", stamps[0], runSubs, map[string]callAgg{"obs.Probe.Event": {events, probeNs}})
	b.span(op, "shard.Merge", stamps[1], stamps[2].Sub(stamps[1]), nil)
	b.span(op, "obs.merge", stamps[2], stamps[3].Sub(stamps[2]), nil)
	return nil
}

// artifact is one paper artifact of paper_figs.
type artifact struct {
	name string
	// exact marks the artifacts whose sweep cells are exact Markov
	// solves, not simulations. Their cells are timed in runner.* but are
	// not ops: they take microseconds against the simulations'
	// milliseconds, and mixed in they would put the op median on the
	// edge between the two clusters, where it jumps.
	exact bool
	run   func(q experiments.Quality, w io.Writer) (experiments.Figure, error)
}

func figArtifact(name string, fn func([]float64, experiments.Quality) (experiments.Figure, error)) artifact {
	return artifact{name, false, func(q experiments.Quality, w io.Writer) (experiments.Figure, error) {
		fig, err := fn(wl.PaperRhoGrid(), q)
		if err != nil {
			return fig, err
		}
		return fig, fig.RenderCSV(w)
	}}
}

func exactArtifact(a artifact) artifact {
	a.exact = true
	return a
}

// frontierCases are the Table II rows cmd/figures evaluates.
var frontierCases = []struct {
	title                       string
	resCost, budget, ratio, rho float64
	tol                         float64
}{
	{"resources dear, μs/μn=0.1 (Table II row 1)", 50, 2000, 0.1, 0.6, 0.10},
	{"resources dear, μs/μn=10, heavy load (Table II row 2)", 50, 2000, 10, 0.9, 0.05},
	{"comparable costs, μs/μn=0.1 (Table II row 3)", 8, 600, 0.1, 0.6, 0.10},
	{"network dear / resources cheap (Table II row 5)", 0.5, 150, 1, 0.6, 0.10},
}

// paperArtifacts lists what `figures -fig all` simulates or solves,
// in its order; figs 11, table1 and table2 involve no sweep.
var paperArtifacts = []artifact{
	exactArtifact(figArtifact("fig4", experiments.Fig4)),
	exactArtifact(figArtifact("fig5", experiments.Fig5)),
	figArtifact("fig7", experiments.Fig7),
	figArtifact("fig8", experiments.Fig8),
	figArtifact("fig12", experiments.Fig12),
	figArtifact("fig13", experiments.Fig13),
	{"blocking", false, func(q experiments.Quality, w io.Writer) (experiments.Figure, error) {
		fig := experiments.FigBlocking(8, blockingTrials, q)
		return fig, fig.RenderCSV(w)
	}},
	figArtifact("compare", func(rhos []float64, q experiments.Quality) (experiments.Figure, error) {
		return experiments.FigCompare(0.1, rhos, q)
	}),
	{"ratio", false, func(q experiments.Quality, w io.Writer) (experiments.Figure, error) {
		fig, err := experiments.FigRatioSweep(0.7, experiments.PaperRatioGrid(), q)
		if err != nil {
			return fig, err
		}
		return fig, fig.RenderCSV(w)
	}},
	{"frontier", false, func(q experiments.Quality, w io.Writer) (experiments.Figure, error) {
		for _, fc := range frontierCases {
			entries, err := experiments.Frontier(cost.DefaultModel(fc.resCost), fc.budget, fc.ratio, fc.rho, q)
			if err != nil {
				return experiments.Figure{}, err
			}
			if err := experiments.RenderFrontier(w, fc.title, entries, fc.tol); err != nil {
				return experiments.Figure{}, err
			}
		}
		return experiments.Figure{}, nil
	}},
}

// sbusRef is the exact Markov value of one ratio-sweep SBUS/2 cell.
type sbusRef struct {
	ratio, exact float64
}

const (
	ratioRho   = 0.7
	sbusLabel  = "16/16x1x1 SBUS/2"
	plantProcs = experiments.PlantProcessors
	plantRes   = experiments.PlantResources
)

// sbusReferences solves every ratio-sweep 16/16x1x1 SBUS/2 cell
// exactly: sixteen private buses with two resources each.
func sbusReferences() ([]sbusRef, error) {
	v := experiments.SBUSVariant{Label: sbusLabel, Partitions: 16}
	var refs []sbusRef
	for _, ratio := range experiments.PaperRatioGrid() {
		lambda := queueing.LambdaForIntensity(ratioRho, plantProcs, 1, ratio, plantRes)
		d, sat, err := experiments.SBUSDelay(v, lambda, 1, ratio)
		if err != nil {
			return nil, err
		}
		if sat {
			return nil, fmt.Errorf("exact SBUS/2 saturated at μs/μn=%g", ratio)
		}
		refs = append(refs, sbusRef{ratio, d})
	}
	return refs, nil
}

// checkSBUS compares the ratio sweep's simulated SBUS/2 cells with the
// exact values and returns the largest error in half-widths.
func checkSBUS(fig experiments.Figure, refs []sbusRef) (worst float64, err error) {
	s := fig.FindSeries(sbusLabel)
	if s == nil || len(s.Points) != len(refs) {
		return 0, fmt.Errorf("ratio sweep lacks the %s series", sbusLabel)
	}
	for k, p := range s.Points {
		if p.Saturated || !(p.HalfWide > 0) {
			return 0, fmt.Errorf("%s at μs/μn=%g has no interval", sbusLabel, refs[k].ratio)
		}
		z := (p.Y - refs[k].exact) / p.HalfWide
		if z < 0 {
			z = -z
		}
		if z > worst {
			worst = z
		}
	}
	if worst > sbusTolerance {
		return worst, fmt.Errorf("%s is %.2f half-widths from the exact value (limit %g)", sbusLabel, worst, sbusTolerance)
	}
	return worst, nil
}

func paperFigsRound(b *bench, r *roundRec) {
	t0 := time.Now()
	cells := runner.NewTelemetry() // sweep cells of the simulation-backed artifacts: the ops
	solves := runner.NewTelemetry()
	q := experiments.Quality{Samples: figSamples, Warmup: figWarmup, Seed: b.seed, Workers: b.workers}
	l := r.layers
	var mu sync.Mutex
	q.Observe = func(o experiments.ObservedRun) (obs.Probe, func(sim.Result)) {
		start := time.Now()
		return nil, func(res sim.Result) {
			d := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if msg := checkResult(&res); msg != "" {
				r.failOther(fmt.Sprintf("%s point %d rep %d: %s", o.Config, o.Point, o.Rep, msg))
			}
			if r.mode == traced {
				l.simRuns++
				l.simNs += int64(d)
				l.simCompleted += res.Completed
				addTelemetry(l.tel[netKind(o.Config.Type)], res.Telemetry)
			}
		}
	}
	refs, err := sbusReferences()
	r.setup += time.Since(t0)
	if err != nil {
		r.failOther(err.Error())
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	loop := time.Now()
	for _, a := range paperArtifacts {
		q.Telemetry = cells
		if a.exact {
			q.Telemetry = solves
		}
		start := time.Now()
		fig, err := a.run(q, r.simSum)
		d := time.Since(start)
		if err != nil {
			r.failOther(fmt.Sprintf("%s: %v", a.name, err))
			continue
		}
		if a.name == "ratio" && refs != nil {
			worst, err := checkSBUS(fig, refs)
			b.sbusWorst = max(b.sbusWorst, worst)
			if err != nil {
				r.failOther(err.Error())
			}
		}
		if r.mode == traced {
			l.artifactNs[a.name] += int64(d)
			b.span(r.span, "experiments."+a.name, start, d, nil)
		}
	}
	loopD := time.Since(loop)
	runtime.ReadMemStats(&m1)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, j := range cells.Jobs() {
		r.ops = append(r.ops, j.Duration())
	}
	if r.mode == traced {
		c, s := cells.Summary(), solves.Summary()
		busy := int64(c.Busy + s.Busy)
		l.runnerJobs += int64(c.Jobs + s.Jobs)
		l.runnerBusyNs += busy
		l.runnerIdleNs += int64(b.workers)*int64(loopD) - busy
	}
}

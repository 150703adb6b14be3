// Command rsinbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed host-time budget, checks the simulated
// results, and prints its metrics; the last line of standard output is
// one JSON object. See README.md for the workloads and metrics.
//
//	rsinbench --workload omega4096 --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose result digests are committed in
// digests.json.
const defaultSeed = 1

// maxWorkers caps the goroutines of the parallel workloads: the
// measured box has two cores, and the fixed work must not depend on
// the machine beyond that.
const maxWorkers = 2

// minRoundsPerMode makes every mode run at least twice, so each op is
// re-run and must reproduce its result.
const minRoundsPerMode = 2

//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one benchmark run's shared state.
type bench struct {
	seed      uint64
	workers   int
	tracing   bool // record spans for the current round
	epoch     time.Time
	spans     []span
	sbusWorst float64 // largest SBUS/2 error seen, in half-widths
}

// span is one timed interval of a traced round. Per-call spans inside
// an op are aggregated into Calls: an op makes about 10⁶ of them.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	DurNs   int64              `json:"dur_ns"`
	Calls   map[string]callAgg `json:"calls,omitempty"`
}

type callAgg struct {
	Count int64 `json:"count"`
	Ns    int64 `json:"ns"`
}

// span records an interval when the current round is traced and
// returns its id (-1 otherwise).
func (b *bench) span(parent int, name string, start time.Time, d time.Duration, calls map[string]callAgg) int {
	if !b.tracing {
		return -1
	}
	id := len(b.spans)
	b.spans = append(b.spans, span{ID: id, Parent: parent, Name: name, StartNs: int64(start.Sub(b.epoch)), DurNs: int64(d), Calls: calls})
	return id
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rsinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run ("+workloadNames()+"), or all")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; per-op seeds derive from it")
	seconds := fs.Int("seconds", 10, "host seconds of work to measure, at the reference box's speed")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	spansDir := fs.String("spans", "", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		selected = []workload{w}
		if !ok {
			selected = nil
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "rsinbench: need --workload (%s or all), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	// With several workloads the JSON line carries every workload's
	// metrics, prefixed by its name, and the combined verdict.
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1, *spansDir, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "rsinbench: %v\n", err)
			return 1
		}
		if len(selected) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "rsinbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload measures one workload, prints its report and returns
// its result.
func runWorkload(w workload, seed uint64, budget time.Duration, trace bool, spansDir string, stdout, stderr io.Writer) (result, error) {
	want, err := committedDigest(w.name)
	if err != nil {
		return result{}, err
	}
	b := &bench{seed: seed, workers: min(maxWorkers, runtime.NumCPU()), epoch: time.Now()}
	modes := []mode{plain}
	if trace {
		modes = w.traceModes
	}
	rounds := measure(b, w, modes, budget)
	res, notes := verdict(b, w, rounds, want)
	if trace {
		res.Metrics = layerMetrics(rounds)
		for k, v := range microRows() {
			res.Metrics[k] = v
		}
		if spansDir != "" {
			if err := writeSpans(filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), b.spans); err != nil {
				return result{}, err
			}
		}
	} else {
		res.Metrics = endToEnd(rounds)
	}
	for _, n := range notes {
		fmt.Fprintf(stderr, "rsinbench: %s\n", n)
	}
	printSummary(stdout, w, b, rounds, res)
	return res, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// committedDigest returns the digest committed for name at defaultSeed.
func committedDigest(name string) (string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	return d[name], nil
}

// roundsFor is the number of rounds a run measures: the rounds that
// take budget on the reference box, at least minRoundsPerMode per mode,
// rounded up to whole mode cycles. The count depends on the budget
// only, never on how fast this run goes, so every run of a workload
// does the same work and its percentiles are taken over the same
// number of ops.
func roundsFor(w workload, modes int, budget time.Duration) int {
	n := int((budget + w.nominalRound - 1) / w.nominalRound)
	n = max(n, minRoundsPerMode*modes)
	return (n + modes - 1) / modes * modes
}

// measure runs the workload's rounds, cycling through modes. The heap
// is collected before each round so no round pays for its
// predecessor's garbage.
func measure(b *bench, w workload, modes []mode, budget time.Duration) []*roundRec {
	var rounds []*roundRec
	for k := 0; k < roundsFor(w, len(modes), budget); k++ {
		r := newRound(modes[k%len(modes)])
		runtime.GC()
		b.tracing = r.mode == traced
		t0 := time.Now()
		r.span = b.span(-1, "round", t0, 0, nil)
		w.round(b, r)
		r.wall = time.Since(t0)
		if r.span >= 0 {
			b.spans[r.span].DurNs = int64(r.wall)
		}
		rounds = append(rounds, r)
	}
	return rounds
}

// verdict checks every round and counts attempted and failed ops. All
// rounds must give the same simulated statistics (each op is re-run
// with its own seed every round, traced or not), rounds with probes the
// same probe output, and at defaultSeed the committed digest.
func verdict(b *bench, w workload, rounds []*roundRec, want string) (result, []string) {
	var res result
	var notes []string
	first := rounds[0]
	simRef := hexDigest(first.simSum)
	obsRef := ""
	for _, r := range rounds {
		if r.mode != probeOff && obsRef == "" {
			obsRef = hexDigest(r.obsSum)
		}
	}
	for k, r := range rounds {
		failed := len(r.failed)
		notes = append(notes, r.notes...)
		mismatch := hexDigest(r.simSum) != simRef
		if r.mode != probeOff && hexDigest(r.obsSum) != obsRef {
			mismatch = true
		}
		if mismatch {
			notes = append(notes, fmt.Sprintf("round %d (%s) did not reproduce round 0", k, r.mode))
			failed = len(r.ops)
		}
		res.Attempted += len(r.ops)
		res.Failed += min(failed, max(len(r.ops), 1))
	}
	got := combinedDigest(simRef, obsRef)
	notes = append(notes, fmt.Sprintf("%s digest at seed %d: %s", w.name, b.seed, got))
	if b.seed == defaultSeed && got != want {
		notes = append(notes, fmt.Sprintf("digest differs from the committed %q", want))
		res.Failed = max(res.Failed, len(first.ops))
	}
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0
	return res, notes
}

// combinedDigest is the digest committed per workload: simulated
// statistics and probe output together.
func combinedDigest(simHex, obsHex string) string {
	h := sha256.New()
	io.WriteString(h, simHex+"\n"+obsHex+"\n")
	return hexDigest(h)
}

func durations(rounds []*roundRec, m mode) (ops, walls, setups []float64) {
	for _, r := range rounds {
		if r.mode != m {
			continue
		}
		for _, d := range r.ops {
			ops = append(ops, d.Seconds())
		}
		walls = append(walls, r.wall.Seconds())
		setups = append(setups, r.setup.Seconds())
	}
	return ops, walls, setups
}

// endToEnd computes the untraced run's metrics from its plain rounds.
func endToEnd(rounds []*roundRec) map[string]metric {
	ops, walls, setups := durations(rounds, plain)
	var alloc uint64
	for _, r := range rounds {
		alloc += r.alloc
	}
	tailV, _, _ := tail(ops)
	return map[string]metric{
		"wall_s":          {median(walls), "s"},
		"op_p50_ms":       {median(ops) * 1e3, "ms"},
		"op_tail_ms":      {tailV * 1e3, "ms"},
		"setup_s":         {median(setups), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / float64(max(len(ops), 1)), "MB"},
	}
}

// layerMetrics computes the traced run's per-layer metrics: totals of
// the traced rounds divided by their number, so every count and time
// is per round — the same unit of work as wall_s.
func layerMetrics(rounds []*roundRec) map[string]metric {
	tot := newLayerTotals()
	n := 0
	for _, r := range rounds {
		if r.mode == traced {
			tot.add(r.layers)
			n++
		}
	}
	per := func(v int64) float64 { return float64(v) / float64(max(n, 1)) }
	secs := func(ns int64) float64 { return per(ns) / 1e9 }
	m := map[string]metric{}
	for _, net := range netModules {
		c, t := tot.calls[net], tot.tel[net]
		m[net+".acquire_calls"] = metric{per(c.AcquireCalls), "count"}
		m[net+".acquire_ok_ratio"] = metric{ratio(float64(c.AcquireOK), float64(c.AcquireCalls)), "ratio"}
		m[net+".acquire_s"] = metric{secs(c.AcquireNs), "s"}
		m[net+".hint_calls"] = metric{per(c.HintCalls), "count"}
		m[net+".hint_true_ratio"] = metric{ratio(float64(c.HintTrue), float64(c.HintCalls)), "ratio"}
		m[net+".hint_s"] = metric{secs(c.HintNs), "s"}
		m[net+".release_calls"] = metric{per(c.ReleaseCalls), "count"}
		m[net+".release_s"] = metric{secs(c.ReleaseNs), "s"}
		m[net+".rejects"] = metric{per(t.Rejects), "count"}
		m[net+".box_visits"] = metric{per(t.BoxVisits), "count"}
		m[net+".path_block"] = metric{per(t.PathBlock), "count"}
		m[net+".resource_block"] = metric{per(t.ResourceBlock), "count"}
	}
	core := tot.calls["core"]
	m["core.telemetry_calls"] = metric{per(core.TelCalls), "count"}
	m["core.telemetry_s"] = metric{secs(core.TelNs), "s"}
	m["obs.events"] = metric{per(tot.probeEvents), "count"}
	m["obs.event_s"] = metric{secs(tot.probeNs), "s"}
	m["obs.merge_s"] = metric{secs(tot.obsMergeNs), "s"}
	m["sim.runs"] = metric{per(tot.simRuns), "count"}
	m["sim.run_s"] = metric{secs(tot.simNs), "s"}
	m["sim.self_s"] = metric{secs(tot.simNs - tot.simTimedNs), "s"}
	m["sim.completed"] = metric{per(tot.simCompleted), "count"}
	m["sim.ns_per_completed"] = metric{ratio(float64(tot.simNs), float64(tot.simCompleted)), "ns"}
	m["runner.jobs"] = metric{per(tot.runnerJobs), "count"}
	m["runner.busy_s"] = metric{secs(tot.runnerBusyNs), "s"}
	m["runner.idle_s"] = metric{secs(tot.runnerIdleNs), "s"}
	m["runner.occupancy"] = metric{ratio(float64(tot.runnerBusyNs), float64(tot.runnerBusyNs+tot.runnerIdleNs)), "ratio"}
	m["shard.runsubs_s"] = metric{secs(tot.runSubsNs), "s"}
	m["shard.merge_s"] = metric{secs(tot.shardMergeNs), "s"}
	for _, a := range paperArtifacts {
		m["experiments."+a.name+"_s"] = metric{secs(tot.artifactNs[a.name]), "s"}
	}
	m["config.build_s"] = metric{secs(tot.buildNs), "s"}

	tracedOps, _, _ := durations(rounds, traced)
	plainOps, _, _ := durations(rounds, plain)
	offOps, _, _ := durations(rounds, probeOff)
	m["trace.overhead_ratio"] = metric{ratio(median(tracedOps), median(plainOps)), "ratio"}
	m["obs.probe_cost_ratio"] = metric{ratio(median(plainOps), median(offOps)), "ratio"}
	// Time inside timed calls against the simulation time around them.
	timedNs := tot.simTimedNs + tot.shardMergeNs + tot.obsMergeNs
	m["trace.unexplained_frac"] = metric{1 - ratio(float64(timedNs), float64(tot.simNs+tot.shardMergeNs+tot.obsMergeNs)), "ratio"}
	return m
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSummary writes the human-readable report that precedes the
// JSON line.
func printSummary(w io.Writer, wl workload, b *bench, rounds []*roundRec, res result) {
	ops, walls, _ := durations(rounds, plain)
	_, pct, ok := tail(ops)
	fmt.Fprintf(w, "workload %s seed %d: %d rounds (%d plain), %d ops, %d failed, correct=%v\n",
		wl.name, b.seed, len(rounds), len(walls), res.Attempted, res.Failed, res.Correct)
	if ok {
		fmt.Fprintf(w, "op tail is p%.1f of %d plain ops\n", pct, len(ops))
	} else {
		fmt.Fprintf(w, "op tail is the maximum: %d plain ops leave no percentile with %d beyond it\n", len(ops), tailBeyond)
	}
	if wl.name == "paper_figs" {
		fmt.Fprintf(w, "simulator error: worst 16/16x1x1 SBUS/2 ratio cell is %.3f CI half-widths from the exact Markov value (limit %g)\n",
			b.sbusWorst, sbusTolerance)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

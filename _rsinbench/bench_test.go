package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/obs"
	"rsin/internal/queueing"
	"rsin/internal/sim"
)

// metricName is the shape every printed metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runDigest runs spec once at ρ = 0.7, bare or behind the timing
// decorators, and returns the Result's digest text and the probe's
// event stream (nil with the probe off).
func runDigest(t *testing.T, spec string, timed, probe bool) (string, []obs.Event) {
	t.Helper()
	cfg, err := config.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	opt := config.BuildOptions{Seed: 7}
	var net core.Network
	if timed {
		net, err = buildTimed(cfg, opt, newLayerTotals().calls)
	} else {
		net, err = cfg.Build(opt)
	}
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	sc := sim.Config{
		Lambda: queueing.LambdaForIntensity(0.7, cfg.Processors, 1, 0.5, cfg.TotalResources()),
		MuN:    1, MuS: 0.5, Seed: 11, Warmup: 50, Samples: 4000, CollectDelays: true,
	}
	if probe {
		var p obs.Probe = obs.Func(func(e obs.Event) { events = append(events, e) })
		if timed {
			p = &timedProbe{inner: p}
		}
		sc.Probe = p
	}
	res, err := sim.Run(net, sc)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	digestResult(&b, &res)
	return b.String(), events
}

// TestTimedNetworkResultIdentical pins the decorator's transparency:
// every network, alone and partitioned, probe on and off, gives a
// byte-identical Result and event stream behind it.
func TestTimedNetworkResultIdentical(t *testing.T) {
	for _, spec := range []string{
		"16/1x16x1 SBUS/32",
		"16/16x1x1 SBUS/2",
		"16/1x16x16 XBAR/2",
		"16/1x16x16 OMEGA/2",
		"64/4x16x16 XBAR/1",
		"64/4x16x16 OMEGA/1",
	} {
		for _, probe := range []bool{false, true} {
			bare, bareEv := runDigest(t, spec, false, probe)
			timed, timedEv := runDigest(t, spec, true, probe)
			if bare != timed {
				t.Errorf("%s probe=%v: Result differs behind the decorator:\nbare:  %.300s\ntimed: %.300s", spec, probe, bare, timed)
			}
			if !reflect.DeepEqual(bareEv, timedEv) {
				t.Errorf("%s probe=%v: event stream differs behind the decorator (%d vs %d events)", spec, probe, len(bareEv), len(timedEv))
			}
			if probe && len(bareEv) == 0 {
				t.Errorf("%s: probe saw no events", spec)
			}
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		value float64
		pct   float64
		ok    bool
	}{
		{0, 0, 0, false},
		{1, 1, 100, false},
		{10, 10, 100, false},
		{11, 1, 100.0 / 11, true},
		{20, 10, 50, true},
		{100, 90, 90, true},
		{1000, 990, 99, true},
	} {
		v, pct, ok := tail(seq(c.n))
		if v != c.value || math.Abs(pct-c.pct) > 1e-9 || ok != c.ok {
			t.Errorf("tail(n=%d) = %g, p%g, %v; want %g, p%g, %v", c.n, v, pct, ok, c.value, c.pct, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d values beyond the tail", c.n, beyond)
			}
		}
	}
}

// TestRoundsFor: the round count follows the budget alone, covers
// every mode at least twice, and is a whole number of mode cycles.
func TestRoundsFor(t *testing.T) {
	w := workload{nominalRound: 3 * time.Second}
	for _, c := range []struct {
		modes  int
		budget time.Duration
		want   int
	}{
		{1, 20 * time.Second, 7},
		{1, 1 * time.Second, 2},
		{2, 20 * time.Second, 8},
		{3, 20 * time.Second, 9},
		{3, 1 * time.Second, 6},
		{1, 21 * time.Second, 7},
	} {
		if got := roundsFor(w, c.modes, c.budget); got != c.want {
			t.Errorf("roundsFor(%d modes, %v) = %d, want %d", c.modes, c.budget, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

// TestDigestStable: a rerun digests identically, and a one-ulp change
// to a statistic changes the digest.
func TestDigestStable(t *testing.T) {
	a, _ := runDigest(t, "16/1x16x16 OMEGA/2", false, false)
	b, _ := runDigest(t, "16/1x16x16 OMEGA/2", false, false)
	if a != b {
		t.Fatal("the same run digested differently twice")
	}
	r := sim.Result{Completed: 5, MeanQueue: 1.5, Details: []core.NamedCounter{{Name: "x", Value: 1}}}
	var before, after strings.Builder
	digestResult(&before, &r)
	r.MeanQueue = math.Nextafter(r.MeanQueue, 2)
	digestResult(&after, &r)
	if before.String() == after.String() {
		t.Error("a one-ulp change in MeanQueue left the digest unchanged")
	}
}

func TestResultChecks(t *testing.T) {
	good := sim.Result{Completed: 1, Telemetry: core.Telemetry{Attempts: 5, Grants: 3, Failures: 2, ResourceBlock: 1, PathBlock: 1}}
	if msg := checkResult(&good); msg != "" {
		t.Errorf("consistent result rejected: %s", msg)
	}
	for name, mut := range map[string]func(*sim.Result){
		"attempts":  func(r *sim.Result) { r.Telemetry.Attempts++ },
		"failures":  func(r *sim.Result) { r.Telemetry.PathBlock++ },
		"completed": func(r *sim.Result) { r.Completed = 0 },
	} {
		r := good
		mut(&r)
		if checkResult(&r) == "" {
			t.Errorf("%s: inconsistent result accepted", name)
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON: the untraced run prints exactly
// the end_to_end metrics of BENCHMARK.json and the traced run exactly
// its per_layer metrics, with the declared units, and every name has
// the allowed shape.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	rounds := []*roundRec{newRound(plain), newRound(traced)}
	layer := layerMetrics(rounds)
	for k, v := range microRows() {
		layer[k] = v
	}
	for _, c := range []struct {
		what  string
		got   map[string]metric
		decls []decl
	}{
		{"end_to_end", endToEnd(rounds), spec.EndToEnd},
		{"per_layer", layer, spec.PerLayer},
	} {
		want := map[string]string{}
		for _, d := range c.decls {
			want[d.Name] = d.Unit
		}
		var names []string
		for k := range c.got {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if !metricName.MatchString(k) {
				t.Errorf("%s metric %q has a disallowed name", c.what, k)
			}
			if u, ok := want[k]; !ok {
				t.Errorf("%s metric %q is printed but not declared", c.what, k)
			} else if u != c.got[k].Unit {
				t.Errorf("%s metric %q has unit %q, declared %q", c.what, k, c.got[k].Unit, u)
			}
		}
		for k := range want {
			if _, ok := c.got[k]; !ok {
				t.Errorf("%s metric %q is declared but not printed", c.what, k)
			}
		}
	}
}

func TestEveryWorkloadHasCommittedDigest(t *testing.T) {
	for _, w := range workloads {
		d, err := committedDigest(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != 64 {
			t.Errorf("%s: committed digest %q is not a sha256 hex", w.name, d)
		}
	}
}

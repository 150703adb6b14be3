// Command bench records and gates engine-throughput benchmarks.
//
// It shells out to `go test -bench -benchmem`, runs each benchmark count
// times, and keeps the minimum ns/op per benchmark — the min-of-N estimator,
// which tracks the machine's best case and is far less noisy than the
// mean under CI load. Results are written as a small JSON document
// (schema rsin-bench/1, sorted by name, no timestamps) so the baseline
// can live in git and diff cleanly:
//
//	{
//	  "schema": "rsin-bench/1",
//	  "go_bench": "BenchmarkEngineThroughput|BenchmarkShardedRun",
//	  "results": [
//	    {"name": "BenchmarkEngineThroughput/16/16x1x1_SBUS/2", "ns_per_op": 12345678,
//	     "bytes_per_op": 81920, "allocs_per_op": 95},
//	    ...
//	  ]
//	}
//
// Modes:
//
//	bench -out BENCH_sim.json              # refresh the committed baseline
//	bench -baseline BENCH_sim.json         # gate: fail on >5% regression
//
// The gate compares this run's min-of-N against the committed baseline
// and fails when any benchmark is slower by more than -tolerance
// (default 0.05). Benchmarks added since the baseline was recorded are
// reported but do not fail the gate; benchmarks that disappeared do,
// so silent renames cannot dodge it.
//
// The gate then checks probe cost within the same run: every
// "_probe=attr" or "_probe=series" row must be measured alongside its
// probe-off sibling (the same name without the suffix), and a row of a
// partitioned system must be at most probeCostLimit times slower than
// it. Comparing rows of one run cancels the machine, so this bound
// holds on any box.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's row. The memory fields come from -benchmem;
// they are recorded next to ns/op for reading, and neither gate uses
// them.
type result struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

type document struct {
	Schema  string   `json:"schema"`
	GoBench string   `json:"go_bench"`
	Results []result `json:"results"`
}

const schema = "rsin-bench/1"

func main() {
	var (
		benchRe   = flag.String("bench", "BenchmarkEngineThroughput|BenchmarkShardedRun", "go test -bench regexp")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		count     = flag.Int("count", 5, "runs per benchmark; the minimum ns/op is kept")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime per run")
		out       = flag.String("out", "", "write the measured baseline to this file")
		baseline  = flag.String("baseline", "", "compare against this committed baseline and fail on regression")
		tolerance = flag.Float64("tolerance", 0.05, "allowed slowdown fraction before the gate fails")
	)
	flag.Parse()
	if (*out == "") == (*baseline == "") {
		fmt.Fprintln(os.Stderr, "bench: exactly one of -out or -baseline is required")
		os.Exit(2)
	}
	if *count < 1 {
		fmt.Fprintln(os.Stderr, "bench: -count must be ≥ 1")
		os.Exit(2)
	}

	doc, err := measure(*benchRe, *pkg, *count, *benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("bench: wrote %d results to %s (min of %d runs each)\n", len(doc.Results), *out, *count)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	err = errors.Join(gate(os.Stdout, base, doc, *tolerance), probeGate(os.Stdout, doc))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs the benchmarks count times with -benchmem and parses the
// output into a document.
func measure(benchRe, pkg string, count int, benchtime string) (document, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count), "-benchtime", benchtime, pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return document{}, fmt.Errorf("go test -bench failed: %w", err)
	}
	doc, err := parse(raw)
	if err != nil {
		return document{}, err
	}
	if len(doc.Results) == 0 {
		return document{}, fmt.Errorf("no benchmark results matched %q in %s", benchRe, pkg)
	}
	doc.GoBench = benchRe
	return doc, nil
}

// gomaxprocsSuffix is the "-8" that go test appends to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench -benchmem` output, whose result lines look
// like
//
//	BenchmarkEngineThroughput/16/16x1x1_SBUS/2-8   3   18351133 ns/op   5120 B/op   12 allocs/op
//
// with any custom metrics among the value-unit pairs. It keeps the
// minimum of ns/op, B/op and allocs/op seen for each name (GOMAXPROCS
// suffix stripped), each metric on its own; the memory fields stay nil
// for a benchmark whose lines do not report them.
func parse(raw []byte) (document, error) {
	mins := map[string]*result{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		vals := map[string]float64{}
		for i := 2; i+1 < len(f); i += 2 {
			switch unit := f[i+1]; unit {
			case "ns/op", "B/op", "allocs/op":
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					return document{}, fmt.Errorf("bad %s in %q: %w", unit, sc.Text(), err)
				}
				vals[unit] = v
			}
		}
		ns, ok := vals["ns/op"]
		if !ok {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(f[0], "")
		r := mins[name]
		if r == nil {
			r = &result{Name: name, NsPerOp: ns}
			mins[name] = r
		}
		r.NsPerOp = min(r.NsPerOp, ns)
		r.BytesPerOp = minOpt(r.BytesPerOp, vals, "B/op")
		r.AllocsPerOp = minOpt(r.AllocsPerOp, vals, "allocs/op")
	}
	if err := sc.Err(); err != nil {
		return document{}, err
	}
	doc := document{Schema: schema}
	for _, r := range mins {
		doc.Results = append(doc.Results, *r)
	}
	sort.Slice(doc.Results, func(i, j int) bool { return doc.Results[i].Name < doc.Results[j].Name })
	return doc, nil
}

// minOpt returns the smaller of the optional value cur (nil when not yet
// seen) and vals[unit], if the line reported that unit.
func minOpt(cur *float64, vals map[string]float64, unit string) *float64 {
	v, ok := vals[unit]
	if !ok || (cur != nil && *cur <= v) {
		return cur
	}
	return &v
}

func readBaseline(path string) (document, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		return document{}, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return document{}, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return doc, nil
}

// gate compares cur against base and returns an error when any baseline
// benchmark regressed beyond tolerance or vanished from the run.
func gate(w *os.File, base, cur document, tolerance float64) error {
	current := map[string]float64{}
	for _, r := range cur.Results {
		current[r.Name] = r.NsPerOp
	}
	var failures []string
	for _, b := range base.Results {
		ns, ok := current[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		ratio := ns / b.NsPerOp
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.1f%% slower, tolerance %.0f%%)",
					b.Name, ns, b.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		fmt.Fprintf(w, "bench: %-60s %12.0f ns/op  baseline %12.0f  ratio %.3f  %s\n",
			b.Name, ns, b.NsPerOp, ratio, status)
	}
	known := map[string]bool{}
	for _, b := range base.Results {
		known[b.Name] = true
	}
	for _, r := range cur.Results {
		if !known[r.Name] {
			fmt.Fprintf(w, "bench: %-60s %12.0f ns/op  (new, no baseline)\n", r.Name, r.NsPerOp)
		}
	}
	if len(failures) > 0 {
		msg := "throughput gate failed:"
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Fprintf(w, "bench: %d benchmarks within %.0f%% of baseline\n", len(base.Results), tolerance*100)
	return nil
}

// probeCostLimit is the largest slowdown a probe row of a partitioned
// system may show against its probe-off sibling of the same run. There
// the engine's per-Acquire reject lookup used to sum every
// sub-network's telemetry: the p=4096 XBAR rows ran at 2.2× on a
// 2-vCPU box, and run at 0.96–1.1× with the O(1) lookup.
const probeCostLimit = 1.5

// probeSuffixes mark the probe-on rows; stripping one gives the name of
// the row's probe-off sibling.
var probeSuffixes = []string{"_probe=attr", "_probe=series"}

// shapeRe captures i, the sub-network count, from the p/i×j×k system in
// a benchmark name ("4096/64x64x64_XBAR/1" → 64).
var shapeRe = regexp.MustCompile(`/(\d+)x\d+x\d+_`)

// partitioned reports whether the benchmark name runs a system of more
// than one sub-network. Only those rows are held to probeCostLimit: on
// a single network the reject lookup was always one counter, and a
// probe row's excess is the recorder's own event handling (1.1–1.4× on
// the p=16 OMEGA rows), too close to the limit to gate across machines.
func partitioned(name string) bool {
	m := shapeRe.FindStringSubmatch(name)
	return m != nil && m[1] != "1"
}

// probeGate pairs every probe row of cur with its probe-off sibling and
// returns an error when a sibling is missing or a partitioned row is
// more than probeCostLimit times slower than its sibling.
func probeGate(w io.Writer, cur document) error {
	ns := map[string]float64{}
	for _, r := range cur.Results {
		ns[r.Name] = r.NsPerOp
	}
	var failures []string
	for _, r := range cur.Results {
		for _, suf := range probeSuffixes {
			off, ok := strings.CutSuffix(r.Name, suf)
			if !ok {
				continue
			}
			base, ok := ns[off]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: probe-off sibling %s not measured", r.Name, off))
				continue
			}
			ratio := r.NsPerOp / base
			status := "ok"
			switch {
			case !partitioned(r.Name):
				status = "not gated"
			case ratio > probeCostLimit:
				status = "PROBE COST"
				failures = append(failures,
					fmt.Sprintf("%s: %.2f× its probe-off sibling (limit %.2f×)", r.Name, ratio, probeCostLimit))
			}
			fmt.Fprintf(w, "bench: %-60s probe cost %.3f× (limit %.2f×)  %s\n", r.Name, ratio, probeCostLimit, status)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("probe-cost gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

package main

import (
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"
	"strconv"
	"syscall"

	"rsin/internal/core"
	"rsin/internal/sim"
	"rsin/internal/stats"
)

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many operations must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailBeyond values above it, as (value, percentile in [0,100]). With
// n values that is the (n−tailBeyond)-th smallest, at percentile
// 100·(n−tailBeyond)/n. With too few values no percentile qualifies;
// tail then returns the maximum with ok=false.
func tail(xs []float64) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	k := n - tailBeyond
	return s[k-1], 100 * float64(k) / float64(n), true
}

// peakRSSMB returns the process's peak resident set size in MB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func hexDigest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

func fx(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func ciText(c stats.CI) string {
	return fx(c.Mean) + "," + fx(c.HalfWide) + "," + strconv.FormatInt(c.N, 10)
}

// digestResult writes every simulated statistic of r to w in a
// canonical text form: floats in exact hexadecimal, counters in order.
// Two Results digest equal only if they are bit-for-bit the same.
func digestResult(w io.Writer, r *sim.Result) {
	t := r.Telemetry
	fmt.Fprintf(w, "delay=%s norm=%s resp=%s mq=%s util=%s done=%d sim=%s\n",
		ciText(r.Delay), ciText(r.NormalizedDelay), ciText(r.Response),
		fx(r.MeanQueue), fx(r.Utilization), r.Completed, fx(r.SimTime))
	fmt.Fprintf(w, "tel=%d,%d,%d,%d,%d,%d,%d\n",
		t.Attempts, t.Failures, t.ResourceBlock, t.PathBlock, t.Rejects, t.BoxVisits, t.Grants)
	for _, d := range r.Details {
		fmt.Fprintf(w, "%s=%d\n", d.Name, d.Value)
	}
	for _, d := range r.Delays {
		fmt.Fprintf(w, "%s\n", fx(d))
	}
}

// checkResult applies the telemetry identities every run must satisfy
// and returns a description of the first violation, or "".
func checkResult(r *sim.Result) string {
	t := r.Telemetry
	switch {
	case t.Attempts != t.Grants+t.Failures:
		return fmt.Sprintf("Attempts %d != Grants %d + Failures %d", t.Attempts, t.Grants, t.Failures)
	case t.Failures != t.ResourceBlock+t.PathBlock:
		return fmt.Sprintf("Failures %d != ResourceBlock %d + PathBlock %d", t.Failures, t.ResourceBlock, t.PathBlock)
	case r.Completed <= 0:
		return "no task completed"
	}
	return ""
}

func addTelemetry(dst *core.Telemetry, t core.Telemetry) {
	dst.Attempts += t.Attempts
	dst.Failures += t.Failures
	dst.ResourceBlock += t.ResourceBlock
	dst.PathBlock += t.PathBlock
	dst.Rejects += t.Rejects
	dst.BoxVisits += t.BoxVisits
	dst.Grants += t.Grants
}

// ratio returns a/b, or 0 when b is 0 (the layer was idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

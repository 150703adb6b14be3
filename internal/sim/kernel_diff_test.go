package sim

import (
	"bytes"
	"fmt"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
)

// This file is the kernel differential matrix: the acceptance proof for
// the SoA + arena + calendar-queue refactor. For every network class ×
// processor count × traffic intensity cell it runs three kernels over
// the same workload —
//
//   - runOracle: the frozen pre-refactor kernel (AoS procs, binary heap),
//   - the production kernel driven with the binary-heap oracle queue,
//   - the production kernel on the calendar queue (what Run uses),
//
// and requires the rendered Result (every metric, telemetry counter,
// and raw delay sample) and the rendered obs trace bytes (every grant,
// reject, and timestamp, in order) to be identical across all three.
// Result equality pins the SoA/arena rewrite; trace equality pins event
// ordering, including (time, seq) ties, which is exactly where a
// calendar queue can silently diverge from a heap.

// testQueues names the pending-event structures tests drive the
// production kernel with: the binary-heap oracle and the calendar queue
// Run itself uses.
var testQueues = []struct {
	name string
	mk   func() eventQueue
}{
	{"heap", func() eventQueue { return &eventHeap{} }},
	{"calendar", func() eventQueue { return newCalendarQueue() }},
}

// runOnQueue is Run with q as the pending-event structure: the test
// seam through which the heap oracle reaches the production kernel.
func runOnQueue(net core.Network, cfg Config, q eventQueue) (Result, error) {
	if err := cfg.validate(net.Processors()); err != nil {
		return Result{}, err
	}
	return newKernel(net, cfg, q).run()
}

// kernelDiffNet is one network class instantiated for a given p.
type kernelDiffNet struct {
	name string
	mk   func() core.Network
}

// kernelDiffNets builds the four network classes of the paper scaled to
// p processors. Omega networks are limited to power-of-two sizes up to
// 64, so the large-p OMEGA rows are partitioned clusters of 64-wide
// subnetworks — which is also the only configuration the figures use
// past p=64.
//
// Two further rows cover the in-network reject path, the only source of
// reject events and grant Aux counts, in cells that run with invariant
// checks on. PART-OMEGA, two 8-port Omega partitions at p=16 (the
// large-p OMEGA rows already partition), reaches the rejects through
// core.Partitioned.Rejects; TYPED-OMEGA, a bound two-type Omega up to
// the 64-port limit, through the bound typed network's Rejects. The
// oracle counts rejects by diffing Telemetry(), so these rows prove the
// O(1) counters report exactly the same.
func kernelDiffNets(p int) []kernelDiffNet {
	nets := []kernelDiffNet{
		// Single shared bus, resource-rich: queueing is all path blocking.
		{"SBUS", func() core.Network { return bus.New(p, 2*p) }},
		// Crossbar with one resource per port and half as many ports as
		// processors: path and resource blocking both active.
		{"XBAR", func() core.Network { return crossbar.New(p, p/2, 1) }},
		// Four equal bus partitions: per-partition hint delegation.
		{"PART", func() core.Network {
			subs := make([]core.Network, 4)
			for i := range subs {
				subs[i] = bus.New(p/4, p/2)
			}
			return core.NewPartitioned(subs)
		}},
	}
	if p <= 64 {
		nets = append(nets, kernelDiffNet{"OMEGA", func() core.Network {
			return omega.New(p, 2)
		}})
	} else {
		nets = append(nets, kernelDiffNet{"OMEGA", func() core.Network {
			subs := make([]core.Network, p/64)
			for i := range subs {
				subs[i] = omega.New(64, 2)
			}
			return core.NewPartitioned(subs)
		}})
	}
	if p == 16 {
		nets = append(nets, kernelDiffNet{"PART-OMEGA", func() core.Network {
			return core.NewPartitioned([]core.Network{omega.New(8, 2), omega.New(8, 2)})
		}})
	}
	if p <= 64 {
		// Two types, one resource of each per port; even processors
		// request type 0, odd ones type 1.
		nets = append(nets, kernelDiffNet{"TYPED-OMEGA", func() core.Network {
			pools := make([][]int, p)
			typeOf := make([]int, p)
			for j := range pools {
				pools[j] = []int{1, 1}
				typeOf[j] = j % 2
			}
			return omega.NewTyped(p, pools).Bind(typeOf)
		}})
	}
	return nets
}

// kernelDiffSamples scales the per-cell sample count down with p so the
// full 4×4×3 matrix stays inside a test-suite time budget; -short
// quarters it again for the CI quick gate.
func kernelDiffSamples(p int, short bool) int {
	var n int
	switch {
	case p <= 16:
		n = 4000
	case p <= 64:
		n = 2000
	case p <= 256:
		n = 1000
	default:
		n = 400
	}
	if short {
		n /= 4
	}
	return n
}

// runKernelDiffCell runs one matrix cell through all three kernels and
// fails the test on any Result or trace divergence.
func runKernelDiffCell(t *testing.T, mk func() core.Network, lambda float64, samples int) {
	t.Helper()
	// render runs one kernel (q == nil selects runOracle) and returns
	// its rendered Result and trace bytes.
	render := func(q eventQueue) (string, []byte) {
		tr := obs.NewTrace()
		cfg := Config{
			Lambda: lambda, MuN: 2, MuS: 1,
			Seed: 11, Warmup: 50,
			Samples:       samples,
			CollectDelays: true,
			Probe:         tr,
		}
		var (
			res Result
			err error
		)
		if q == nil {
			res, err = runOracle(mk(), cfg, false)
		} else {
			res, err = runOnQueue(mk(), cfg, q)
		}
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obs.WriteTraces(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", res), buf.Bytes()
	}
	wantRes, wantTrace := render(nil)
	for _, tq := range testQueues {
		gotRes, gotTrace := render(tq.mk())
		if gotRes != wantRes {
			t.Errorf("%s kernel Result diverged from oracle:\noracle %.400s\ngot    %.400s",
				tq.name, wantRes, gotRes)
		}
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Errorf("%s kernel trace bytes diverged from oracle (%d vs %d bytes)",
				tq.name, len(gotTrace), len(wantTrace))
		}
	}
	if len(wantTrace) == 0 {
		t.Fatal("oracle produced an empty trace")
	}
}

// TestKernelDifferential sweeps the full matrix. Invariant checks stay
// on for the p=16 cells (where the O(p)-per-event recount is cheap), so
// every structure is pinned once under instrumentation; larger p runs
// the production configuration, where the recounts would dominate the
// suite's time budget without adding coverage the small cells lack.
func TestKernelDifferential(t *testing.T) {
	ps := []int{16, 64, 256, 1024}
	if testing.Short() {
		ps = []int{16, 64, 256}
	}
	for _, p := range ps {
		for _, net := range kernelDiffNets(p) {
			for _, rho := range []float64{0.3, 0.8, 0.95} {
				label := fmt.Sprintf("%s/p=%d/rho=%g", net.name, p, rho)
				t.Run(label, func(t *testing.T) {
					if p > 16 {
						invariant.Enable(false)
						defer invariant.Enable(true)
					}
					samples := kernelDiffSamples(p, testing.Short())
					if net.name == "OMEGA" && p > 64 && rho > 0.9 {
						// Past its effective saturation point the omega
						// cluster retry-storms: events (and trace bytes)
						// per sample grow by over two orders of magnitude,
						// so even 8 samples exercise hundreds of thousands
						// of event-order decisions. Identity, not
						// statistics, is what the cell proves.
						samples = 8
					}
					lambda := queueing.LambdaForIntensity(rho, p, 2, 1, mkTotalRes(net.mk))
					runKernelDiffCell(t, net.mk, lambda, samples)
				})
			}
		}
	}
}

// mkTotalRes instantiates a network once just to read its resource
// count for the intensity → λ conversion.
func mkTotalRes(mk func() core.Network) int { return mk().TotalResources() }

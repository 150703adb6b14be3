package sim

import (
	"bytes"
	"fmt"
	"testing"

	"rsin/internal/bus"
	"rsin/internal/config"
	"rsin/internal/core"
	"rsin/internal/crossbar"
	"rsin/internal/invariant"
	"rsin/internal/obs"
	"rsin/internal/omega"
	"rsin/internal/queueing"
	"rsin/internal/rng"
)

func TestWaiterSetBasics(t *testing.T) {
	ws := newWaiterSet(130, 130) // spans three words
	if !ws.empty() {
		t.Fatal("new set not empty")
	}
	for _, pid := range []int{0, 63, 64, 100, 129} {
		ws.add(pid)
	}
	ws.add(100) // duplicate add is a no-op
	if ws.n != 5 {
		t.Fatalf("count = %d, want 5", ws.n)
	}
	var got []int
	for pid := ws.next(0); pid != -1; pid = ws.next(pid + 1) {
		got = append(got, pid)
	}
	want := []int{0, 63, 64, 100, 129}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("iteration %v, want %v", got, want)
	}
	if ws.next(65) != 100 {
		t.Errorf("next(65) = %d, want 100", ws.next(65))
	}
	if ws.next(130) != -1 {
		t.Errorf("next past end = %d, want -1", ws.next(130))
	}
	ws.remove(63)
	ws.remove(63) // duplicate remove is a no-op
	if ws.contains(63) || !ws.contains(64) || ws.n != 4 {
		t.Fatalf("remove bookkeeping wrong: n=%d", ws.n)
	}
	for _, pid := range []int{0, 64, 100, 129} {
		ws.remove(pid)
	}
	if !ws.empty() {
		t.Fatal("set not empty after removing all members")
	}
	if ws.next(0) != -1 {
		t.Fatal("next on empty set did not return -1")
	}
}

// TestWaiterSetPropertyVsMap drives the bitset with a random operation
// mix and checks every answer against a reference map implementation,
// including full ascending iteration and the per-block member counts
// (blocks of 7, the last one partial) after each step.
func TestWaiterSetPropertyVsMap(t *testing.T) {
	const p, span = 200, 7
	src := rng.New(0xbadcafe)
	ws := newWaiterSet(p, span)
	ref := map[int]bool{}
	for step := 0; step < 5000; step++ {
		pid := src.Intn(p)
		switch src.Intn(3) {
		case 0:
			ws.add(pid)
			ref[pid] = true
		case 1:
			ws.remove(pid)
			delete(ref, pid)
		case 2:
			if ws.contains(pid) != ref[pid] {
				t.Fatalf("step %d: contains(%d) = %v, ref %v", step, pid, ws.contains(pid), ref[pid])
			}
		}
		if ws.n != len(ref) {
			t.Fatalf("step %d: count %d, ref %d", step, ws.n, len(ref))
		}
		// Ascending iteration must enumerate exactly the reference set.
		seen := 0
		prev := -1
		for m := ws.next(0); m != -1; m = ws.next(m + 1) {
			if m <= prev || !ref[m] {
				t.Fatalf("step %d: iteration yielded %d (prev %d, ref member %v)", step, m, prev, ref[m])
			}
			prev = m
			seen++
		}
		if seen != len(ref) {
			t.Fatalf("step %d: iterated %d members, ref has %d", step, seen, len(ref))
		}
		for b, c := range ws.count {
			want := 0
			for m := range ref {
				if m/span == b {
					want++
				}
			}
			if bit := ws.blocks[b>>6]&(1<<uint(b&63)) != 0; c != want || bit != (want > 0) {
				t.Fatalf("step %d: block %d count %d bit %v, ref has %d members", step, b, c, bit, want)
			}
		}
	}
}

// diffNets builds the network matrix for the differential proof. Fresh
// instances per run: networks carry telemetry and allocation state.
func diffNets() map[string]func() core.Network {
	return map[string]func() core.Network{
		// Single shared bus near saturation: deep queues, large blocked set.
		"SBUS": func() core.Network { return bus.New(16, 32) },
		// Crossbar with scarce resources: both path and resource blocking.
		"XBAR": func() core.Network { return crossbar.New(16, 8, 2) },
		// Multistage network: in-network rejects and path blocking the
		// availability hint cannot see.
		"OMEGA": func() core.Network { return omega.New(16, 2) },
		// Partitioned system: per-partition hint delegation.
		"PART": func() core.Network {
			return core.NewPartitioned([]core.Network{
				bus.New(4, 2), bus.New(4, 2), bus.New(4, 2), bus.New(4, 2),
			})
		},
		// Partitioned crossbars: hopeless partitions the release did not
		// touch are deferred and settled later.
		"PART-XBAR": func() core.Network {
			return core.NewPartitioned([]core.Network{
				crossbar.New(4, 2, 1), crossbar.New(4, 2, 1), crossbar.New(4, 2, 1), crossbar.New(4, 2, 1),
			})
		},
		// Partitioned Omega networks: untouched partitions whose waiters
		// path-block stay live and are walked waiter by waiter.
		"PART-OMEGA": func() core.Network {
			return core.NewPartitioned([]core.Network{omega.New(8, 2), omega.New(8, 2)})
		},
		// Four small Omega networks under heavy load: blocks stay stuck
		// (live, every waiter refused in the boxes) across many passes,
		// so their repeat failures are booked through the failure memo.
		"PART-OMEGA-STUCK": func() core.Network {
			return core.NewPartitioned([]core.Network{
				omega.New(8, 1), omega.New(8, 1), omega.New(8, 1), omega.New(8, 1),
			})
		},
		// The same with random lane choice: every walked waiter's failed
		// route draws from the network's generator, so a waiter skipped
		// or visited out of order shifts the stream. The failure memo
		// must stay off.
		"PART-OMEGA-LR": func() core.Network {
			mk := func(seed uint64) core.Network {
				return omega.New(8, 2, omega.WithLanePolicy(omega.LaneRandom), omega.WithSeed(seed))
			}
			return core.NewPartitioned([]core.Network{mk(1), mk(2)})
		},
	}
}

// diffLambda picks a per-processor rate that keeps each configuration
// stable but heavily contended, so wakes routinely visit many waiters.
func diffLambda(name string) float64 {
	switch name {
	case "SBUS":
		return 0.11 // bus utilization ≈ 0.88 at μn=2
	case "XBAR":
		return 0.8 // resource intensity ≈ 0.8
	case "OMEGA":
		return 1.2 // heavy path contention
	case "PART":
		return 0.4 // per-partition bus utilization ≈ 0.8
	case "PART-XBAR":
		return 0.4 // resource intensity ≈ 0.8
	case "PART-OMEGA", "PART-OMEGA-LR":
		return 1.2 // heavy path contention, as OMEGA
	case "PART-OMEGA-STUCK":
		return 0.6 // one resource per port: resource intensity ≈ 0.9
	default:
		panic("unknown diff net " + name)
	}
}

// TestWakeEngineDifferential is the equivalence proof for the
// incremental wake engine: for every network class, wake policy,
// jitter setting, and seed, the oracle kernel's legacy full-rescan
// engine (runOracle with legacyWake, availability hints disabled) must
// produce a Result — metrics, telemetry, detail counters, and every raw
// delay sample — that renders byte-identically to Run's incremental
// engine.
func TestWakeEngineDifferential(t *testing.T) {
	for name, mk := range diffNets() {
		for _, pol := range []WakePolicy{WakeIndexOrder, WakeRandom, WakeRoundRobin} {
			for _, jitter := range []float64{0, 0.3} {
				for _, seed := range []uint64{1, 2} {
					label := fmt.Sprintf("%s/%s/jitter=%g/seed=%d", name, pol, jitter, seed)
					t.Run(label, func(t *testing.T) {
						cfg := Config{
							Lambda: diffLambda(name), MuN: 2, MuS: 1,
							Seed: seed, Warmup: 50, Samples: 4000,
							WakePolicy: pol, RetryJitter: jitter,
							CollectDelays: true,
						}
						want, err := runOracle(mk(), cfg, true)
						if err != nil {
							t.Fatal(err)
						}
						got, err := Run(mk(), cfg)
						if err != nil {
							t.Fatal(err)
						}
						ws, gs := fmt.Sprintf("%+v", want), fmt.Sprintf("%+v", got)
						if ws != gs {
							t.Errorf("incremental engine diverged from legacy:\nlegacy      %.400s\nincremental %.400s", ws, gs)
						}
					})
				}
			}
		}
	}
}

// TestWakeEngineDifferentialTrace extends the proof to the observable
// event stream: with a probe attached, the rendered trace bytes of the
// legacy oracle engine and Run must be identical — same grants,
// rejects, and timestamps in the same order.
func TestWakeEngineDifferentialTrace(t *testing.T) {
	for name, mk := range diffNets() {
		for _, pol := range []WakePolicy{WakeIndexOrder, WakeRandom, WakeRoundRobin} {
			t.Run(name+"/"+pol.String(), func(t *testing.T) {
				render := func(legacy bool) []byte {
					tr := obs.NewTrace()
					cfg := Config{
						Lambda: diffLambda(name), MuN: 2, MuS: 1,
						Seed: 7, Warmup: 50, Samples: 1500,
						WakePolicy: pol, Probe: tr,
					}
					var err error
					if legacy {
						_, err = runOracle(mk(), cfg, true)
					} else {
						_, err = Run(mk(), cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					var buf bytes.Buffer
					if err := obs.WriteTraces(&buf, tr); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				want, got := render(true), render(false)
				if !bytes.Equal(want, got) {
					t.Error("incremental engine produced different trace bytes than legacy")
				}
				if len(want) == 0 {
					t.Fatal("empty trace")
				}
			})
		}
	}
}

// countingNet forwards a network with a block hint, and its failure
// memo when it has one, and counts the calls the kernel makes into its
// grant path and its hints.
type countingNet struct {
	core.Network
	bh       core.BlockHinter
	acquires int64
	hints    int64 // AcquireWouldFail and AcquireWouldFailN calls
}

func (c *countingNet) Acquire(pid int) (core.Grant, bool) {
	c.acquires++
	return c.Network.Acquire(pid)
}

func (c *countingNet) AcquireWouldFail(pid int) bool {
	c.hints++
	return c.bh.AcquireWouldFail(pid)
}

func (c *countingNet) HintSpan() int { return c.bh.HintSpan() }

func (c *countingNet) AcquireWouldFailN(pid, n int) bool {
	c.hints++
	return c.bh.AcquireWouldFailN(pid, n)
}

func (c *countingNet) RecordFailures() bool {
	fm, ok := c.Network.(core.FailureMemo)
	return ok && fm.RecordFailures()
}

func (c *countingNet) RepeatFailures(pid, waiters, n int) {
	c.Network.(core.FailureMemo).RepeatFailures(pid, waiters, n)
}

// BenchmarkWakeEngines measures the incremental blocked-waiter engine
// in its target regime: high resource intensity, where every release
// wakes a large waiter set. Each row also reports the hint and Acquire
// calls the kernel made per run, counted by countingNet, so a change in
// ns/op can be read against the probe work behind it.
func BenchmarkWakeEngines(b *testing.B) {
	// The package's test init forces invariant checks on, which adds an
	// O(p) recount per event and would mask the wake engine's cost.
	// Measure the production configuration.
	invariant.Enable(false)
	defer invariant.Enable(true)
	big := func(spec string) func() core.Network {
		return func() core.Network {
			c, err := config.Parse(spec)
			if err != nil {
				b.Fatal(err)
			}
			net, err := c.Build(config.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return net
		}
	}
	cases := []struct {
		name     string
		mk       func() core.Network
		lam      float64
		muN, muS float64
		warmup   float64
		samples  int
	}{
		// 64 processors on one bus at ≈0.9 bus utilization: nearly every
		// processor queues, so every release wakes a large waiter set.
		{"SBUS-p64", func() core.Network { return bus.New(64, 128) }, 0.9 * 1.0 / 64, 4, 1, 100, 20000},
		// 64 and 128 processors on resource-scarce crossbars at ρ ≈ 0.85.
		{"XBAR-p64", func() core.Network { return crossbar.New(64, 8, 2) }, 0.85 * 16 / 64, 4, 1, 100, 20000},
		{"XBAR-p128", func() core.Network { return crossbar.New(128, 16, 2) }, 0.85 * 32 / 128, 4, 1, 100, 20000},
		// The large-p partitioned systems at ρ = 0.8, μs/μn = 0.1: 64
		// independent 64-wide sub-networks, where most waiters sit in
		// partitions a release did not touch.
		{"4096/64x64x64_XBAR/1", big("4096/64x64x64 XBAR/1"), queueing.LambdaForIntensity(0.8, 4096, 1, 0.1, 4096), 1, 0.1, 100, 20000},
		{"4096/64x64x64_OMEGA/1", big("4096/64x64x64 OMEGA/1"), queueing.LambdaForIntensity(0.8, 4096, 1, 0.1, 4096), 1, 0.1, 100, 20000},
	}
	for _, c := range cases {
		b.Run(c.name+"/incremental", func(b *testing.B) {
			var acquires, hints int64
			for i := 0; i < b.N; i++ {
				net := c.mk()
				cn := &countingNet{Network: net, bh: net.(core.BlockHinter)}
				cfg := Config{
					Lambda: c.lam, MuN: c.muN, MuS: c.muS,
					Seed: 1, Warmup: c.warmup, Samples: c.samples,
				}
				if _, err := Run(cn, cfg); err != nil {
					b.Fatal(err)
				}
				acquires += cn.acquires
				hints += cn.hints
			}
			b.ReportMetric(float64(hints)/float64(b.N), "hints/op")
			b.ReportMetric(float64(acquires)/float64(b.N), "acquires/op")
		})
	}
}

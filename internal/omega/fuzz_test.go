package omega

import (
	"math/bits"
	"testing"

	"rsin/internal/core"
)

// FuzzOmegaOps drives random operation sequences through the Omega
// state machine and checks it against a brute-force reference of free
// resources and busy ports after every step.
//
// Input layout: byte 0 picks the size (2..64), byte 1 the resources
// per port, wiring, lane policy and reroute switch; then each 3-byte
// record (op, a, b) is one operation: Acquire, AcquireWouldFail,
// AcquireBatch, AcquireTag, ReleasePath, ReleaseResource,
// SetResourceAvailability or RepeatFailures.
//
// Checked after every step: the status word equals a bit-by-bit
// recount, resources are conserved per port, every grant landed on a
// port whose status bit was set (the live word, or the frozen phase-1
// word for a batch), and the reference agrees on every port. A twin
// network receives the same operations, except that each
// AcquireWouldFail probe on the primary becomes a full Acquire on the
// twin when the hint answers true: the two must then report identical
// telemetry (the core.AvailabilityHinter contract), and a false answer
// must leave the primary's telemetry untouched.
//
// The primary also records its failures (core.FailureMemo) unless its
// lane policy is LaneRandom or it has only 2 ports, where
// RecordFailures must decline. The
// reference tracks the processors whose Acquire failed since the last
// state change; a RepeatFailures(n) on the primary becomes, on the
// twin, n rounds of real Acquires by those processors, each of which
// must fail. Telemetry and per-stage rejects must then agree, as after
// every other step.
func FuzzOmegaOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 1, 2, 0})
	f.Add([]byte{2, 5, 0, 3, 0, 0, 7, 0, 2, 3, 0, 3, 5, 9, 4, 0, 0, 5, 0, 0, 1, 4, 0})
	f.Add([]byte{5, 2, 0, 1, 0, 0, 2, 0, 0, 3, 0, 2, 11, 0, 6, 3, 0, 4, 0, 0, 5, 0, 0, 2, 7, 0})
	f.Add([]byte{1, 12, 6, 0, 0, 6, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0, 6, 0, 2, 0, 3, 0})
	f.Add([]byte{3, 26, 0, 5, 0, 2, 31, 0, 2, 9, 0, 3, 12, 12, 4, 1, 0, 5, 1, 0, 6, 12, 1, 1, 1, 0})
	// 8 ports, one resource each: processors 0 and 4 path-block, their
	// failures are repeated three times, then SetResourceAvailability
	// (leaving port 7 as it was) makes the memo stale and processor 4
	// fails and is repeated alone.
	f.Add([]byte{2, 0, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 7, 0, 3, 6, 7, 1, 0, 4, 0, 7, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 << (data[0] % 6)
		perPort := 1 + int(data[1]%3)
		opts := []Option{WithSeed(uint64(data[0]))}
		if data[1]&4 != 0 {
			opts = append(opts, WithWiring(CubeWiring))
		}
		if data[1]&8 != 0 {
			opts = append(opts, WithLanePolicy(LaneRandom))
		}
		if data[1]&16 != 0 {
			opts = append(opts, WithoutReroute())
		}
		o, twin := New(n, perPort, opts...), New(n, perPort, opts...)
		memoOn := o.RecordFailures()
		if memoOn != (o.policy != LaneRandom && n > 2) {
			t.Fatalf("RecordFailures = %v on %d ports under lane policy %v", memoOn, n, o.policy)
		}
		// failed holds the processors whose Acquire failed since the last
		// change of the network's state.
		var failed uint64

		// The reference: per-port free resources, bus state and
		// resources taken offline by SetResourceAvailability, plus the
		// outstanding grants (primary and twin copies).
		type held struct {
			g, tg  core.Grant
			onPath bool
		}
		free := make([]int, n)
		busy := make([]bool, n)
		offline := make([]int, n)
		for j := range free {
			free[j] = perPort
		}
		var grants []held
		reserved := func(j int) int {
			c := 0
			for _, h := range grants {
				if h.g.Port == j {
					c++
				}
			}
			return c
		}
		grant := func(g, tg core.Grant, status uint64) {
			j := g.Port
			if tg.Port != j {
				t.Fatalf("twin diverged: port %d vs %d", j, tg.Port)
			}
			if status&(1<<uint(j)) == 0 {
				t.Fatalf("granted port %d whose status bit was clear in %#x", j, status)
			}
			if busy[j] || free[j] == 0 {
				t.Fatalf("granted port %d, reference busy=%v free=%d", j, busy[j], free[j])
			}
			if len(g.Path.(*pathGrant).wires) != o.Stages() {
				t.Fatalf("grant claimed %d wires, want %d", len(g.Path.(*pathGrant).wires), o.Stages())
			}
			busy[j] = true
			free[j]--
			grants = append(grants, held{g: g, tg: tg, onPath: true})
			failed = 0
		}
		// pick returns the index of the k-th outstanding grant whose path
		// state is onPath, or -1.
		pick := func(k int, onPath bool) int {
			var idx []int
			for i, h := range grants {
				if h.onPath == onPath {
					idx = append(idx, i)
				}
			}
			if len(idx) == 0 {
				return -1
			}
			return idx[k%len(idx)]
		}

		for i := 2; i+2 < len(data); i += 3 {
			op, a, b := data[i]%8, int(data[i+1]), int(data[i+2])
			pid := a % n
			switch op {
			case 0:
				live := o.elig
				g, ok := o.Acquire(pid)
				tg, tok := twin.Acquire(pid)
				if ok != tok {
					t.Fatalf("twin diverged on Acquire(%d)", pid)
				}
				if ok {
					grant(g, tg, live)
				} else {
					if n == 2 && live != 0 {
						t.Fatalf("2×2 network refused processor %d with eligible ports %#x", pid, live)
					}
					failed |= 1 << uint(pid)
				}
			case 1:
				before := o.Telemetry()
				if o.AcquireWouldFail(pid) {
					if _, ok := twin.Acquire(pid); ok {
						t.Fatalf("hint said Acquire(%d) must fail, but it granted", pid)
					}
				} else if o.Telemetry() != before {
					t.Fatalf("false hint touched telemetry: %+v -> %+v", before, o.Telemetry())
				}
			case 2:
				pids := make([]int, 1+b%4)
				for k := range pids {
					pids[k] = (pid + k*(b|1)) % n
				}
				status := o.elig
				gs, oks := o.AcquireBatch(pids)
				tgs, toks := twin.AcquireBatch(pids)
				for k := range pids {
					if oks[k] != toks[k] {
						t.Fatalf("twin diverged on batch request %d", k)
					}
					if oks[k] {
						grant(gs[k], tgs[k], status)
					}
				}
			case 3:
				dst := b % n
				live := o.elig
				g, ok := o.AcquireTag(pid, dst)
				tg, tok := twin.AcquireTag(pid, dst)
				if ok != tok {
					t.Fatalf("twin diverged on AcquireTag(%d,%d)", pid, dst)
				}
				if ok {
					if g.Port != dst {
						t.Fatalf("AcquireTag(%d,%d) granted port %d", pid, dst, g.Port)
					}
					grant(g, tg, live)
				}
			case 4:
				if k := pick(a, true); k >= 0 {
					o.ReleasePath(grants[k].g)
					twin.ReleasePath(grants[k].tg)
					busy[grants[k].g.Port] = false
					grants[k].onPath = false
					failed = 0
				}
			case 5:
				if k := pick(a, false); k >= 0 {
					o.ReleaseResource(grants[k].g)
					twin.ReleaseResource(grants[k].tg)
					free[grants[k].g.Port]++
					grants = append(grants[:k], grants[k+1:]...)
					failed = 0
				}
			case 6:
				// Take resources offline or bring them back, never below
				// what outstanding grants still hold.
				j := a % n
				c := b % (perPort + 1)
				if limit := perPort - reserved(j); c > limit {
					c = limit
				}
				o.SetResourceAvailability(j, c)
				twin.SetResourceAvailability(j, c)
				free[j] = c
				offline[j] = perPort - reserved(j) - c
				failed = 0
			case 7:
				if !memoOn || failed == 0 {
					break
				}
				rounds := b % 4
				o.RepeatFailures(pid, bits.OnesCount64(failed), rounds)
				for r := 0; r < rounds; r++ {
					for m := failed; m != 0; m &= m - 1 {
						if _, ok := twin.Acquire(bits.TrailingZeros64(m)); ok {
							t.Fatalf("twin granted processor %d, whose failure was repeated", bits.TrailingZeros64(m))
						}
					}
				}
			}

			if o.Telemetry() != twin.Telemetry() {
				t.Fatalf("op %d: telemetry diverged from twin:\nnet  %+v\ntwin %+v", op, o.Telemetry(), twin.Telemetry())
			}
			for s := range o.rejectsByStage {
				if o.rejectsByStage[s] != twin.rejectsByStage[s] {
					t.Fatalf("op %d: stage %d rejects %d, twin %d", op, s, o.rejectsByStage[s], twin.rejectsByStage[s])
				}
			}
			if err := o.VerifyState(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			var recount uint64
			for j := 0; j < n; j++ {
				if o.FreeResources(j) != free[j] {
					t.Fatalf("op %d: port %d free %d, reference %d", op, j, o.FreeResources(j), free[j])
				}
				if o.WireOccupied(o.Stages()-1, j) != busy[j] {
					t.Fatalf("op %d: port %d busy %v, reference %v", op, j, o.WireOccupied(o.Stages()-1, j), busy[j])
				}
				if free[j]+reserved(j)+offline[j] != perPort {
					t.Fatalf("op %d: port %d leaks resources: free %d + reserved %d + offline %d != %d",
						op, j, free[j], reserved(j), offline[j], perPort)
				}
				if !busy[j] && free[j] > 0 {
					recount |= 1 << uint(j)
				}
			}
			if o.elig != recount || twin.elig != recount {
				t.Fatalf("op %d: status word %#x (twin %#x), reference recount %#x", op, o.elig, twin.elig, recount)
			}
		}
	})
}

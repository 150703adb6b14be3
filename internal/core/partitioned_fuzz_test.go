package core_test

import (
	"testing"

	"rsin/internal/bus"
	"rsin/internal/core"
	"rsin/internal/crossbar"
)

// FuzzPartitionedOps drives random operation sequences through a
// Partitioned system of buses and crossbars and checks it against a
// brute-force model of every sub-network's buses, free resources and
// telemetry after every step.
//
// Input layout: byte 0 picks the partition count (1..4) and the
// processors per partition (1..4); byte 1 picks each partition's kind
// (bit i set: crossbar, else bus) and the crossbars' port policy (bit
// 4); byte 2 the resources per bus (1..3), the crossbar ports (1..3)
// and resources per port (1..2). Then each 3-byte record (op, a, b) is
// one operation: Acquire, ReleasePath, ReleaseResource,
// AcquireWouldFail or AcquireWouldFailN.
//
// Checked after every step: the grant landed on the port the model
// predicts (the bus's only port; the crossbar policy's choice), every
// port conserves its resources (free + held = total), each
// sub-network's bus and eligibility state matches the model, the summed
// telemetry equals the model's, and Rejects(pid) equals the Rejects of
// pid's own sub-network. A twin system receives the same operations,
// except that each hint probe that answers true on the primary becomes
// the equivalent number of real Acquire calls on the twin: the two
// must then report identical Telemetry and DetailCounters (the
// core.AvailabilityHinter and core.BlockHinter contracts), and a false
// answer must leave the primary's counters untouched.
func FuzzPartitionedOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 3, 1, 0, 4, 1, 3})
	f.Add([]byte{7, 10, 21, 0, 0, 0, 0, 5, 0, 3, 5, 0, 4, 5, 2, 1, 0, 0, 2, 0, 0, 4, 6, 0, 0, 2, 0})
	f.Add([]byte{15, 31, 86, 0, 1, 0, 0, 2, 0, 0, 3, 0, 4, 1, 3, 3, 9, 0, 1, 0, 0, 2, 1, 0, 4, 9, 2})
	f.Add([]byte{2, 17, 6, 0, 0, 0, 0, 1, 0, 4, 2, 1, 0, 2, 0, 1, 0, 0, 4, 3, 0, 3, 3, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nsubs, per := 1+int(data[0]%4), 1+int(data[0]/4%4)
		least := data[1]&16 != 0
		busRes := 1 + int(data[2]%3)
		ports, perPort := 1+int(data[2]/3%3), 1+int(data[2]/9%2)

		// model is one sub-network's reference: per-port bus state and
		// free resources, and the telemetry its calls must produce.
		type model struct {
			xbar  bool
			busy  []bool
			free  []int
			total int // resources per port
			base  int // global index of the sub-network's port 0
			tel   core.Telemetry
		}
		var (
			subs, twins []core.Network
			models      []*model
			base        int
		)
		for i := 0; i < nsubs; i++ {
			m := &model{base: base}
			if data[1]&(1<<uint(i)) != 0 {
				policy := crossbar.FirstFree
				if least {
					policy = crossbar.LeastLoaded
				}
				subs = append(subs, crossbar.NewWithPolicy(per, ports, perPort, policy))
				twins = append(twins, crossbar.NewWithPolicy(per, ports, perPort, policy))
				m.xbar, m.total = true, perPort
				m.busy, m.free = make([]bool, ports), make([]int, ports)
			} else {
				subs = append(subs, bus.New(per, busRes))
				twins = append(twins, bus.New(per, busRes))
				m.total = busRes
				m.busy, m.free = make([]bool, 1), make([]int, 1)
			}
			for j := range m.free {
				m.free[j] = m.total
			}
			base += len(m.free)
			models = append(models, m)
		}
		sys, twin := core.NewPartitioned(subs), core.NewPartitioned(twins)

		// choose returns the port an Acquire on m must take, or -1 when
		// it must fail.
		choose := func(m *model) int {
			best := -1
			for j := range m.free {
				if m.busy[j] || m.free[j] == 0 {
					continue
				}
				if best == -1 || (m.xbar && least && m.free[j] > m.free[best]) {
					best = j
				}
			}
			return best
		}
		// fail books n failed attempts on m, classified as Acquire does.
		fail := func(m *model, n int) {
			anyFree := false
			for _, c := range m.free {
				anyFree = anyFree || c > 0
			}
			m.tel.Attempts += int64(n)
			m.tel.Failures += int64(n)
			if anyFree {
				m.tel.PathBlock += int64(n)
			} else {
				m.tel.ResourceBlock += int64(n)
			}
		}

		type held struct {
			g, tg  core.Grant
			onPath bool
		}
		var grants []held
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
		// hint runs one hint probe on the primary and its equivalent of n
		// real Acquire calls on the twin.
		hint := func(pid, n int, probe func() bool) {
			m := models[pid/per]
			before := counters(sys)
			if probe() {
				if choose(m) != -1 {
					t.Fatalf("hint on processor %d said hopeless, model can grant", pid)
				}
				for i := 0; i < n; i++ {
					if _, ok := twin.Acquire(pid); ok {
						t.Fatalf("hint on processor %d said hopeless, twin Acquire granted", pid)
					}
				}
				fail(m, n)
				return
			}
			if choose(m) == -1 {
				t.Fatalf("hint on processor %d said live, model cannot grant", pid)
			}
			if after := counters(sys); after != before {
				t.Fatalf("false hint touched counters:\nbefore %s\nafter  %s", before, after)
			}
		}

		for i := 3; i+2 < len(data); i += 3 {
			op, a, b := data[i]%5, int(data[i+1]), int(data[i+2])
			pid := a % (nsubs * per)
			m := models[pid/per]
			switch op {
			case 0:
				want := choose(m)
				g, ok := sys.Acquire(pid)
				tg, tok := twin.Acquire(pid)
				if ok != tok {
					t.Fatalf("twin diverged on Acquire(%d)", pid)
				}
				if ok != (want != -1) {
					t.Fatalf("Acquire(%d) = %v, model predicts port %d", pid, ok, want)
				}
				if !ok {
					fail(m, 1)
					break
				}
				if g.Port != m.base+want || tg.Port != g.Port || g.Processor != pid {
					t.Fatalf("Acquire(%d) granted port %d (twin %d), model predicts %d", pid, g.Port, tg.Port, m.base+want)
				}
				m.busy[want] = true
				m.free[want]--
				m.tel.Attempts++
				m.tel.Grants++
				grants = append(grants, held{g: g, tg: tg, onPath: true})
			case 1:
				if k := pick(a, true); k >= 0 {
					h := &grants[k]
					sys.ReleasePath(h.g)
					twin.ReleasePath(h.tg)
					hm := models[h.g.Processor/per]
					hm.busy[h.g.Port-hm.base] = false
					h.onPath = false
				}
			case 2:
				if k := pick(a, false); k >= 0 {
					h := grants[k]
					sys.ReleaseResource(h.g)
					twin.ReleaseResource(h.tg)
					hm := models[h.g.Processor/per]
					hm.free[h.g.Port-hm.base]++
					grants = append(grants[:k], grants[k+1:]...)
				}
			case 3:
				hint(pid, 1, func() bool { return sys.AcquireWouldFail(pid) })
			case 4:
				n := b % 4
				hint(pid, n, func() bool { return sys.AcquireWouldFailN(pid, n) })
			}

			if counters(sys) != counters(twin) {
				t.Fatalf("op %d: counters diverged from twin:\nsys  %s\ntwin %s", op, counters(sys), counters(twin))
			}
			var want core.Telemetry
			for si, m := range models {
				want.Attempts += m.tel.Attempts
				want.Failures += m.tel.Failures
				want.ResourceBlock += m.tel.ResourceBlock
				want.PathBlock += m.tel.PathBlock
				want.Grants += m.tel.Grants
				// The network's own state must match the model's.
				switch n := subs[si].(type) {
				case *bus.Bus:
					if n.FreeResources() != m.free[0] || n.Busy() != m.busy[0] {
						t.Fatalf("op %d: sub %d bus free=%d busy=%v, model free=%d busy=%v",
							op, si, n.FreeResources(), n.Busy(), m.free[0], m.busy[0])
					}
				case *crossbar.Crossbar:
					eligible := 0
					for j := range m.free {
						if !m.busy[j] && m.free[j] > 0 {
							eligible++
						}
					}
					if n.FreePorts() != eligible {
						t.Fatalf("op %d: sub %d crossbar has %d eligible ports, model %d", op, si, n.FreePorts(), eligible)
					}
				}
				for j := range m.free {
					heldHere := 0
					for _, h := range grants {
						if h.g.Port == m.base+j {
							heldHere++
						}
					}
					if m.free[j]+heldHere != m.total {
						t.Fatalf("op %d: sub %d port %d leaks resources: free %d + held %d != %d",
							op, si, j, m.free[j], heldHere, m.total)
					}
				}
			}
			if got := sys.Telemetry(); got != want {
				t.Fatalf("op %d: telemetry %+v, model %+v", op, got, want)
			}
			sub := subs[pid/per].(core.TelemetrySource)
			if got, want := sys.Rejects(pid), sub.Telemetry().Rejects; got != want {
				t.Fatalf("op %d: Rejects(%d) = %d, sub-network reports %d", op, pid, got, want)
			}
		}
	})
}

package sim

import (
	"fmt"
	"testing"
	"unsafe"

	"rsin/internal/rng"
)

// TestEventLayout pins the packed event layout: kind rides in the low
// bits of seq and pid/gidx are int32, so an event is 24 bytes and an
// arena node (event plus its int32 list link) 32 — two nodes per cache
// line. A field added back to event shows up here first.
func TestEventLayout(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Errorf("sizeof(event) = %d, want 24", got)
	}
	if got := unsafe.Sizeof(calNode{}); got != 32 {
		t.Errorf("sizeof(calNode) = %d, want 32", got)
	}
	for _, k := range []eventKind{evArrival, evTxDone, evSvcDone, evRetry} {
		e := event{seq: packSeq(1<<40+3, k)}
		if e.kind() != k || e.seq>>kindBits != 1<<40+3 {
			t.Errorf("packSeq(%d, %d) unpacks to counter %d kind %d", uint64(1<<40+3), k, e.seq>>kindBits, e.kind())
		}
	}
}

// TestCalendarTieOrder pins FIFO resolution of timestamp ties: events
// pushed at the same time must pop in push (seq) order, even when the
// pushes interleave with pops and other timestamps.
func TestCalendarTieOrder(t *testing.T) {
	q := newCalendarQueue(0)
	var seq uint64
	push := func(tm float64) event {
		e := event{time: tm, seq: seq, pid: int32(seq)}
		seq++
		q.push(e)
		return e
	}
	a := push(5)
	b := push(5)
	push(3)
	c := push(5)
	if got := q.pop(); got.time != 3 {
		t.Fatalf("pop = %+v, want time 3", got)
	}
	for i, want := range []event{a, b, c} {
		if got := q.pop(); got != want {
			t.Fatalf("tie pop %d = %+v, want %+v", i, got, want)
		}
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after draining", q.len())
	}
}

// TestCalendarRewind pins the cursor reset: after pops have advanced
// the scan cursor, pushing an earlier event must make it the next pop
// rather than being orphaned behind the cursor.
func TestCalendarRewind(t *testing.T) {
	q := newCalendarQueue(0)
	q.push(event{time: 10, seq: 0})
	q.push(event{time: 20, seq: 1})
	if got := q.pop(); got.time != 10 {
		t.Fatalf("pop = %+v, want time 10", got)
	}
	// Cursor now sits at t=10's year; schedule into the past.
	q.push(event{time: 2, seq: 2})
	if got := q.pop(); got.time != 2 {
		t.Fatalf("pop after rewind = %+v, want time 2", got)
	}
	if got := q.pop(); got.time != 20 {
		t.Fatalf("final pop = %+v, want time 20", got)
	}
}

// TestCalendarGrowShrink walks the population across both resize
// thresholds and checks the ring geometry tracks it: growth past
// 2×buckets doubles the ring, draining below buckets/2 shrinks it back,
// and the floor never drops below calendarMinBuckets. Pop order stays
// globally sorted throughout.
func TestCalendarGrowShrink(t *testing.T) {
	q := newCalendarQueue(0)
	const n = 200
	for i := 0; i < n; i++ {
		q.push(event{time: float64((i * 37) % n), seq: uint64(i)})
	}
	if q.mask+1 < n/2 {
		t.Fatalf("ring did not grow: %d buckets for %d events", q.mask+1, n)
	}
	prev := event{time: -1}
	for i := 0; i < n; i++ {
		e := q.pop()
		if eventLess(e, prev) {
			t.Fatalf("pop %d regressed: %+v after %+v", i, e, prev)
		}
		prev = e
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after drain", q.len())
	}
	if q.mask+1 != calendarMinBuckets {
		t.Fatalf("ring did not shrink back: %d buckets, want %d", q.mask+1, calendarMinBuckets)
	}
}

// TestCalendarSparse exercises the global-minimum fallback: events
// separated by far more than one ring revolution of bucket-years, so
// the cursor scan finds nothing and must jump.
func TestCalendarSparse(t *testing.T) {
	q := newCalendarQueue(0)
	times := []float64{0.5, 1e6, 3e9, 7e12}
	for i, tm := range times {
		q.push(event{time: tm, seq: uint64(i)})
	}
	for i, want := range times {
		if got := q.pop(); got.time != want {
			t.Fatalf("sparse pop %d = %g, want %g", i, got.time, want)
		}
	}
}

// TestCalendarDegenerateWidth pins the all-tied resize: when every
// pending event shares one timestamp the span is zero, width estimation
// must fall back rather than divide the year by zero, and order (by
// seq) must survive the redistribution.
func TestCalendarDegenerateWidth(t *testing.T) {
	q := newCalendarQueue(0)
	const n = 50 // crosses the initial grow threshold mid-stream
	for i := 0; i < n; i++ {
		q.push(event{time: 42, seq: uint64(i)})
	}
	for i := 0; i < n; i++ {
		e := q.pop()
		if e.seq != uint64(i) {
			t.Fatalf("tied pop %d returned seq %d", i, e.seq)
		}
	}
}

// TestCalendarVsHeapRandom is the always-on property companion to
// FuzzCalendarVsHeap: a seeded random mix of pushes (exponential gaps
// around a drifting now, with deliberate ties) and pops, compared
// element-for-element against the heap. This runs on every `go test`,
// not just fuzzing runs.
func TestCalendarVsHeapRandom(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		src := rng.New(seed)
		cal := newCalendarQueue(0)
		var h eventHeap
		var seq uint64
		now := 0.0
		var lastTime float64
		for step := 0; step < 20000; step++ {
			switch op := src.Intn(5); {
			case op < 3 || h.len() == 0: // push-biased mix keeps the queue populated
				var tm float64
				if src.Intn(4) == 0 && seq > 0 {
					tm = lastTime // forced tie
				} else {
					tm = now + src.Exp(1)*float64(1+src.Intn(100))
				}
				lastTime = tm
				e := event{time: tm, seq: seq, pid: int32(seq)}
				seq++
				cal.push(e)
				h.push(e)
			default:
				want := h.pop()
				got := cal.pop()
				if got != want {
					t.Fatalf("seed %d step %d: calendar %+v, heap %+v", seed, step, got, want)
				}
				now = want.time // simulator discipline: future pushes ≥ now
			}
			if cal.len() != h.len() {
				t.Fatalf("seed %d step %d: count %d vs %d", seed, step, cal.len(), h.len())
			}
		}
		for h.len() > 0 {
			want := h.pop()
			if got := cal.pop(); got != want {
				t.Fatalf("seed %d drain: calendar %+v, heap %+v", seed, got, want)
			}
		}
	}
}

// checkArena verifies the event arena's bookkeeping: every bucket list
// is sorted by (time, seq) and holds only events filed under that
// bucket, the lists together hold exactly len() events, and live nodes
// plus the free list account for every node of the arena.
func (q *calendarQueue) checkArena() error {
	limit := len(q.nodes) // any longer walk has hit a cycle
	live := 0
	for b, h := range q.head {
		prev := arenaNil
		for ; h != arenaNil; h = q.nodes[h].next {
			if live++; live > limit {
				return fmt.Errorf("bucket lists hold more than the %d arena nodes", limit)
			}
			e := q.nodes[h].e
			if bi := int(q.epochOf(e.time)) & q.mask; bi != b {
				return fmt.Errorf("event %+v filed in bucket %d, belongs in %d", e, b, bi)
			}
			if prev != arenaNil && !eventLess(q.nodes[prev].e, e) {
				return fmt.Errorf("bucket %d out of order: %+v before %+v", b, q.nodes[prev].e, e)
			}
			prev = h
		}
	}
	free := 0
	for f := q.free; f != arenaNil; f = q.nodes[f].next {
		if free++; free > limit {
			return fmt.Errorf("free list longer than the %d arena nodes", limit)
		}
	}
	if live != q.events {
		return fmt.Errorf("bucket lists hold %d events, len() = %d", live, q.events)
	}
	if live+free != len(q.nodes) {
		return fmt.Errorf("%d live + %d free nodes, arena holds %d", live, free, len(q.nodes))
	}
	return nil
}

// retainedEvents is the number of events the queue's storage can hold
// without growing: the memory it keeps for the rest of the run.
func (q *calendarQueue) retainedEvents() int { return cap(q.nodes) }

// kernelMix is the pending-event mix of a p-processor run at the
// benchmark point (ρ = 0.8, μn = 1, μs = 0.1, one resource per
// processor), ignoring queueing: one exponential arrival timer per
// processor, and per arrival a transmit completion at rate μn followed
// by a service completion at rate μs, both clustered near now.
type kernelMix struct {
	lambda, muN, muS float64
}

func newKernelMix() kernelMix {
	const muN, muS = 1, 0.1
	return kernelMix{lambda: 0.8 / (1/muN + 1/muS), muN: muN, muS: muS}
}

// rate returns the rate of the exponential delay after which an event
// of kind k is scheduled.
func (m kernelMix) rate(k eventKind) float64 {
	switch k {
	case evTxDone:
		return m.muN
	case evSvcDone:
		return m.muS
	}
	return m.lambda
}

// TestCalendarMemoryTracksPopulation drives the queue with the
// simulator's skewed pending set — 4 096 exponential arrival timers
// plus transmit and service completions clustered near now — through
// at least two revolutions of the ring, and requires the storage the
// queue retains to stay within 2× the peak pending population. A
// design that keeps one growable slice per bucket fails this: every
// bucket the cursor passes grows to the dense region's occupancy, and
// the summed capacities reach about 20× the population.
func TestCalendarMemoryTracksPopulation(t *testing.T) {
	const p = 4096
	src := rng.New(11)
	mix := newKernelMix()
	q := newCalendarQueue(p)
	var seq uint64
	push := func(now float64, k eventKind, pid int32) {
		q.push(event{time: now + src.Exp(mix.rate(k)), seq: packSeq(seq, k), pid: pid})
		seq++
	}
	for pid := 0; pid < p; pid++ {
		push(0, evArrival, int32(pid))
	}
	peak, start := q.len(), q.cur
	for step := 0; q.cur-start < 2*int64(q.mask+1); step++ {
		if step == 4_000_000 {
			t.Fatalf("cursor advanced only %d epochs of a %d-bucket ring in %d pops", q.cur-start, q.mask+1, step)
		}
		e := q.pop()
		switch e.kind() {
		case evArrival:
			push(e.time, evArrival, e.pid)
			push(e.time, evTxDone, e.pid)
		case evTxDone:
			push(e.time, evSvcDone, e.pid)
		}
		if n := q.len(); n > peak {
			peak = n
		}
	}
	if got := q.retainedEvents(); got > 2*peak {
		t.Errorf("queue retains storage for %d events, %.1f× the peak population of %d (limit 2×)",
			got, float64(got)/float64(peak), peak)
	}
}

// BenchmarkCalendarHold measures the queue layer alone with the classic
// hold model: each op pops the minimum event and pushes it back at
// now + an exponential increment whose rate depends on its kind, so the
// pending set stays at n events in the arrival/transmit/service
// proportions of a kernel run (kernelMix). The pending sizes match
// p = 16, 1024 and 4096. The queue is filled and cycled through its
// steady state before the timer starts. At 16 pending the queue never
// crosses its first grow threshold, so it keeps the initial width of 1
// and most pops take the sparse-tail scan.
func BenchmarkCalendarHold(b *testing.B) {
	for _, n := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			src := rng.New(3)
			mix := newKernelMix()
			// Kinds in the steady-state proportions 1 : λ/μn : λ/μs.
			weights := [3]float64{1, mix.lambda / mix.muN, mix.lambda / mix.muS}
			sum := weights[0] + weights[1] + weights[2]
			q := newCalendarQueue(n)
			var seq uint64
			hold := func(now float64, k eventKind, pid int32) {
				q.push(event{time: now + src.Exp(mix.rate(k)), seq: packSeq(seq, k), pid: pid})
				seq++
			}
			for i := 0; i < n; i++ {
				k, u := evArrival, src.Float64()*sum
				switch {
				case u >= weights[0]+weights[1]:
					k = evSvcDone
				case u >= weights[0]:
					k = evTxDone
				}
				hold(0, k, int32(i))
			}
			for i := 0; i < 16*n; i++ {
				e := q.pop()
				hold(e.time, e.kind(), e.pid)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := q.pop()
				hold(e.time, e.kind(), e.pid)
			}
			b.StopTimer()
			b.ReportMetric(float64(q.retainedEvents()), "events-retained")
		})
	}
}

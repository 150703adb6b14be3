package sim

import "sort"

// calendarQueue is a calendar-queue event structure (Brown 1988): a
// ring of day-buckets, each one bucket-width of simulated time wide,
// holding its events sorted by (time, seq). At a stationary event rate
// — the simulator's steady state, where the pending set hovers around
// one arrival timer per processor plus the in-flight tasks — insert
// and extract are O(1) amortized, against the binary heap's O(log n)
// with a cache miss per level. The structure resizes itself (doubling
// or halving the ring, re-estimating the width from the live event
// population) whenever the event count drifts past its thresholds, so
// no tuning is exposed.
//
// Ordering contract: pop returns events in exactly the (time, seq)
// order of the binary heap in heap_test.go — including timestamp ties,
// which follow insertion order via seq. The fuzz test drives both
// structures side by side to pin this, and the kernel differential
// matrix pins it end to end.
//
// Determinism: bucket indexing derives from event times alone via
// epochOf (one float64 multiply, identical everywhere), resizes are a
// pure function of the operation sequence, and no randomness or wall
// time is consulted, so two runs fed identical events behave
// identically.
type calendarQueue struct {
	buckets  [][]event
	mask     int     // len(buckets)-1; bucket count is a power of two
	width    float64 // simulated-time width of one bucket
	invWidth float64 // 1/width, cached so epochOf multiplies instead of divides
	cur      int64   // epoch (bucket-years since t=0) the next pop scans from
	events   int
	growAt   int     // resize up when events exceeds this
	shrink   int     // resize down when events falls below this
	scratch  []event // resize spill buffer, retained across resizes
}

// calendarMinBuckets is the smallest ring size; small queues stay here
// and never shrink-resize.
const calendarMinBuckets = 8

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{
		buckets: make([][]event, calendarMinBuckets),
		mask:    calendarMinBuckets - 1,
	}
	q.setWidth(1)
	q.setThresholds()
	return q
}

//lint:hotpath
func (q *calendarQueue) len() int { return q.events }

// setWidth installs a bucket width and its cached reciprocal.
func (q *calendarQueue) setWidth(w float64) {
	q.width = w
	q.invWidth = 1 / w
}

// epochOf maps a timestamp to its bucket-year. Every bucket decision —
// push, pop, resize — goes through this one expression, so an event is
// always looked for exactly where it was filed, float rounding
// included. The reciprocal multiply is not the same rounding as a
// division by width, but it does not need to be: correctness only
// requires that the mapping be monotone in t and used consistently,
// and a multiply by a positive constant is both.
func (q *calendarQueue) epochOf(t float64) int64 { return int64(t * q.invWidth) }

func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// push files e into its day-bucket, keeping the bucket sorted by
// (time, seq).
//
//lint:hotpath
func (q *calendarQueue) push(e event) {
	ep := q.epochOf(e.time)
	if ep < q.cur || q.events == 0 {
		// The simulator only schedules at or after the current time, so
		// a rewind is a same-epoch tie in practice; arbitrary sequences
		// (the fuzz test) may genuinely schedule into the past, and
		// resetting the scan cursor keeps pop correct either way. On an
		// empty queue, jumping the cursor forward skips the dead years.
		q.cur = ep
	}
	//lint:ignore hotalloc bucket growth stops once the ring fits the pending set (resize rebalances); pinned by TestHotStructuresZeroAlloc
	b := append(q.buckets[int(ep)&q.mask], e)
	// Backward shift to the insertion point; ties sort after existing
	// members (seq is strictly increasing, so a tie on time always
	// inserts last among its equals). Buckets hold ~1 event on average
	// and the simulator pushes mostly-ascending times, so the loop body
	// almost never runs — a backward scan beats a binary search here.
	for i := len(b) - 1; i > 0 && eventLess(e, b[i-1]); i-- {
		b[i] = b[i-1]
		b[i-1] = e
	}
	q.buckets[int(ep)&q.mask] = b
	q.events++
	if q.events > q.growAt {
		//lint:ignore hotalloc amortized O(1) ring rebuild, doubling thresholds; pinned by TestHotStructuresZeroAlloc
		q.resize()
	}
}

// pop removes and returns the (time, seq)-minimum event. The queue must
// be nonempty.
//
//lint:hotpath
func (q *calendarQueue) pop() event {
	// Walk day-buckets from the cursor. A bucket's head belongs to the
	// current year exactly when its epoch matches — a head from a later
	// wrap of the ring has a later epoch and is skipped. Heads are
	// bucket minima, so an event of year ep can never hide behind one
	// from year ep+ringSize.
	ep := q.cur
	for i := 0; i <= q.mask; i++ {
		bi := int(ep) & q.mask
		b := q.buckets[bi]
		if len(b) > 0 && q.epochOf(b[0].time) == ep {
			q.cur = ep
			q.events--
			if q.events < q.shrink {
				e := b[0]
				q.removeHead(bi)
				//lint:ignore hotalloc amortized O(1) ring rebuild, halving thresholds; pinned by TestHotStructuresZeroAlloc
				q.resize()
				return e
			}
			return q.removeHead(bi)
		}
		ep++
	}
	// Sparse tail: nothing within one full ring revolution of the
	// cursor. Find the global minimum head directly and jump the
	// cursor to its year.
	best, bi := event{}, -1
	for i := range q.buckets {
		b := q.buckets[i]
		if len(b) == 0 {
			continue
		}
		if bi == -1 || eventLess(b[0], best) {
			best, bi = b[0], i
		}
	}
	q.cur = q.epochOf(best.time)
	q.events--
	if q.events < q.shrink {
		q.removeHead(bi)
		//lint:ignore hotalloc amortized O(1) ring rebuild, halving thresholds; pinned by TestHotStructuresZeroAlloc
		q.resize()
		return best
	}
	return q.removeHead(bi)
}

// removeHead pops bucket bi's head, retaining the bucket's capacity.
//
//lint:hotpath
func (q *calendarQueue) removeHead(bi int) event {
	b := q.buckets[bi]
	e := b[0]
	copy(b, b[1:])
	q.buckets[bi] = b[:len(b)-1]
	return e
}

func (q *calendarQueue) setThresholds() {
	n := q.mask + 1
	q.growAt = 2 * n
	if n > calendarMinBuckets {
		q.shrink = n / 2
	} else {
		q.shrink = 0
	}
}

// resize rebuilds the ring for the current event count: the bucket
// count tracks the population (so a year of buckets spans roughly the
// whole pending set) and the width is re-estimated from the live
// population's average event separation. Events are redistributed in
// globally sorted order, which lands each bucket pre-sorted.
func (q *calendarQueue) resize() {
	q.scratch = q.scratch[:0]
	for i := range q.buckets {
		q.scratch = append(q.scratch, q.buckets[i]...)
		q.buckets[i] = q.buckets[i][:0]
	}
	sort.Slice(q.scratch, func(i, j int) bool { return eventLess(q.scratch[i], q.scratch[j]) })

	n := calendarMinBuckets
	for n < len(q.scratch) {
		n <<= 1
	}
	if n != q.mask+1 {
		q.buckets = make([][]event, n)
		q.mask = n - 1
	}
	q.setThresholds()
	q.setWidth(q.estimateWidth())
	if len(q.scratch) > 0 {
		q.cur = q.epochOf(q.scratch[0].time)
	}
	for _, e := range q.scratch {
		b := &q.buckets[int(q.epochOf(e.time))&q.mask]
		*b = append(*b, e)
	}
}

// estimateWidth derives the bucket width from the sorted event
// population in scratch: half the average separation between the
// earliest and latest pending events, clamped so bucket-year numbers
// stay far from int64 overflow even for degenerate spans. Brown's
// classic tuning is ~3 average separations, but the simulator's
// pending set is strongly skewed — a dense cluster of transmit and
// service completions near now under an exponential tail of arrival
// timers — so wide buckets overload near the cursor and pay a sorted
// insert per push; half a separation keeps the dense region at ~O(1)
// events per bucket, and the emptier buckets cost only a head check
// while the cursor walks past. Width only affects speed, never order:
// the ordering contract holds for any positive width.
func (q *calendarQueue) estimateWidth() float64 {
	s := q.scratch
	if len(s) < 2 {
		return 1
	}
	span := s[len(s)-1].time - s[0].time
	w := span / float64(2*(len(s)-1))
	// Degenerate spans (all-tied timestamps) fall back to the previous
	// width; widths tiny relative to the absolute times would overflow
	// the epoch, so floor at 2^-40 of the latest timestamp.
	if !(w > 0) {
		if q.width > 0 {
			return q.width
		}
		return 1
	}
	if max := s[len(s)-1].time; max > 0 {
		if floor := max / (1 << 40); w < floor {
			w = floor
		}
	}
	return w
}

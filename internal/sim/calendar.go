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
	// Event arena: every pending event lives in one calNode of nodes,
	// linked into its bucket's sorted list through next. Freed nodes
	// are threaded through next into a LIFO free list, so once the
	// arena has grown to the run's peak pending count, push and pop
	// never allocate again (the taskArena idiom of arena.go).
	nodes []calNode
	free  int32 // head of the free list, arenaNil when empty

	head     []int32 // ring of day-buckets: first node of each sorted list, arenaNil when empty
	mask     int     // len(head)-1; bucket count is a power of two
	width    float64 // simulated-time width of one bucket
	invWidth float64 // 1/width, cached so epochOf multiplies instead of divides
	cur      int64   // epoch (bucket-years since t=0) the next pop scans from
	events   int
	growAt   int     // resize up when events exceeds this
	shrink   int     // resize down when events falls below this
	scratch  []int32 // resize gather buffer of node indices, retained across resizes
}

// calNode is one arena slot: a pending event and its bucket-list
// successor (free-list successor once freed).
type calNode struct {
	e    event
	next int32
}

// calendarMinBuckets is the smallest ring size; small queues stay here
// and never shrink-resize.
const calendarMinBuckets = 8

// newCalendarQueue returns an empty queue whose event arena has room
// for capHint events before it first grows. The kernel passes p: one
// arrival timer per processor is always pending.
func newCalendarQueue(capHint int) *calendarQueue {
	if capHint < 0 {
		capHint = 0
	}
	q := &calendarQueue{
		nodes: make([]calNode, 0, capHint),
		free:  arenaNil,
		head:  newRing(calendarMinBuckets),
		mask:  calendarMinBuckets - 1,
	}
	q.setWidth(1)
	q.setThresholds()
	return q
}

// newRing returns n empty day-buckets.
func newRing(n int) []int32 {
	h := make([]int32, n)
	for i := range h {
		h[i] = arenaNil
	}
	return h
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

// push files e into its day-bucket, linking it into the bucket's list
// in (time, seq) order.
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
	n := q.alloc(e)
	// Walk to the insertion point; ties sort after existing members
	// (seq is strictly increasing, so a tie on time always links in
	// last among its equals).
	bi := int(ep) & q.mask
	prev, next := arenaNil, q.head[bi]
	for next != arenaNil && !eventLess(e, q.nodes[next].e) {
		prev, next = next, q.nodes[next].next
	}
	q.nodes[n].next = next
	if prev == arenaNil {
		q.head[bi] = n
	} else {
		q.nodes[prev].next = n
	}
	q.events++
	if q.events > q.growAt {
		//lint:ignore hotalloc amortized O(1) ring rebuild, doubling thresholds; pinned by TestHotStructuresZeroAlloc
		q.resize()
	}
}

// alloc stores e in a free arena node, growing the arena only when the
// free list is empty, and returns the node's index.
//
//lint:hotpath
func (q *calendarQueue) alloc(e event) int32 {
	if i := q.free; i != arenaNil {
		q.free = q.nodes[i].next
		q.nodes[i].e = e
		return i
	}
	//lint:ignore hotalloc arena growth stops at the run's peak pending-event count; pinned by TestHotStructuresZeroAlloc
	q.nodes = append(q.nodes, calNode{e: e})
	return int32(len(q.nodes) - 1)
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
	bi := -1
	for i := 0; i <= q.mask; i++ {
		b := int(ep) & q.mask
		if h := q.head[b]; h != arenaNil && q.epochOf(q.nodes[h].e.time) == ep {
			bi = b
			break
		}
		ep++
	}
	if bi < 0 {
		// Sparse tail: nothing within one full ring revolution of the
		// cursor. Find the global minimum head directly and jump the
		// cursor to its year.
		for b, h := range q.head {
			if h != arenaNil && (bi < 0 || eventLess(q.nodes[h].e, q.nodes[q.head[bi]].e)) {
				bi = b
			}
		}
		ep = q.epochOf(q.nodes[q.head[bi]].e.time)
	}
	q.cur = ep
	h := q.head[bi]
	e := q.nodes[h].e
	q.head[bi] = q.nodes[h].next
	q.nodes[h].next = q.free
	q.free = h
	q.events--
	if q.events < q.shrink {
		//lint:ignore hotalloc amortized O(1) ring rebuild, halving thresholds; pinned by TestHotStructuresZeroAlloc
		q.resize()
	}
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
// population's average event separation. Only the lists are rebuilt;
// events stay in their arena nodes. Nodes are pushed onto the front of
// their new buckets in descending (time, seq) order, which lands each
// list sorted.
func (q *calendarQueue) resize() {
	q.scratch = q.scratch[:0]
	for i, h := range q.head {
		for ; h != arenaNil; h = q.nodes[h].next {
			q.scratch = append(q.scratch, h)
		}
		q.head[i] = arenaNil
	}
	sort.Slice(q.scratch, func(i, j int) bool {
		return eventLess(q.nodes[q.scratch[i]].e, q.nodes[q.scratch[j]].e)
	})

	n := calendarMinBuckets
	for n < len(q.scratch) {
		n <<= 1
	}
	if n != q.mask+1 {
		q.head = newRing(n)
		q.mask = n - 1
	}
	q.setThresholds()
	q.setWidth(q.estimateWidth())
	if len(q.scratch) > 0 {
		q.cur = q.epochOf(q.nodes[q.scratch[0]].e.time)
	}
	for i := len(q.scratch) - 1; i >= 0; i-- {
		x := q.scratch[i]
		b := int(q.epochOf(q.nodes[x].e.time)) & q.mask
		q.nodes[x].next = q.head[b]
		q.head[b] = x
	}
}

// estimateWidth derives the bucket width from the event population
// whose node indices scratch holds in sorted order: half the average separation between the
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
	first, last := q.nodes[s[0]].e.time, q.nodes[s[len(s)-1]].e.time
	span := last - first
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
	if last > 0 {
		if floor := last / (1 << 40); w < floor {
			w = floor
		}
	}
	return w
}

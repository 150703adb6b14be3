package sim

// event is one scheduled occurrence in the simulation.
type event struct {
	time float64
	seq  uint64 // FIFO tie-breaker for deterministic ordering
	kind eventKind
	pid  int // processor concerned (arrival, txDone)
	gidx int // grant table index (txDone, svcDone)
}

type eventKind uint8

const (
	evArrival eventKind = iota
	evTxDone
	evSvcDone
	evRetry
)

// eventQueue is the pending-event structure behind sim.Run: a priority
// queue popping events in (time, seq) order. Production runs always use
// the calendarQueue in calendar.go; the binary eventHeap in
// heap_test.go is its test oracle — the calendar fuzz test and the
// kernel differential matrix drive both and pin identical pop order.
type eventQueue interface {
	len() int
	push(event)
	pop() event
}

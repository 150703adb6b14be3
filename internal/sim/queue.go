package sim

// event is one scheduled occurrence in the simulation, packed into 24
// bytes so a calendar-queue node (event plus list link) fills 32.
type event struct {
	time float64
	// seq is the FIFO tie-breaker: a per-run counter in the high bits,
	// the eventKind in the low kindBits. The counter alone is unique,
	// so ordering by (time, seq) is ordering by (time, counter).
	seq  uint64
	pid  int32 // processor concerned (arrival, txDone, retry)
	gidx int32 // grant table index (txDone, svcDone)
}

type eventKind uint8

const (
	evArrival eventKind = iota
	evTxDone
	evSvcDone
	evRetry
)

// kindBits is the width of the eventKind field packed into event.seq.
const kindBits = 2

// packSeq returns the seq of the n-th scheduled event, of kind k.
func packSeq(n uint64, k eventKind) uint64 { return n<<kindBits | uint64(k) }

// kind returns the event's kind, unpacked from seq.
func (e event) kind() eventKind { return eventKind(e.seq & (1<<kindBits - 1)) }

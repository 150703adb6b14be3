// Package core defines the resource-sharing interconnection network
// (RSIN) abstraction that is the paper's central contribution: a network
// between processors and a pool of identical resources in which a
// request carries no destination address — the network itself locates a
// free resource and establishes a circuit-switched connection to it.
//
// A Network implementation encapsulates one distributed scheduling
// discipline (single shared bus, crossbar of shared buses, Omega network
// with status propagation, …). The discrete-event engine in
// internal/sim drives any Network through the paper's workload model;
// the Partitioned combinator composes independent sub-networks into the
// paper's i×j×k configurations.
package core

import "fmt"

// Grant records one successful resource allocation: the circuit-switched
// connection from a processor to an output port, plus the reserved
// resource behind that port. The processor holds the network path for
// the duration of the task transmission and the resource for the
// duration of service; the two are released independently
// (paper Section II: the connection is broken after transmission while
// the resource continues processing).
type Grant struct {
	Processor int // requesting processor (global index)
	Port      int // output port the request was routed to (global index)
	Path      any // network-private path bookkeeping; owned by the issuing Network
}

// Network is a resource-sharing interconnection network supporting
// distributed scheduling of single-resource requests on one resource
// type (the system class the paper analyzes).
//
// Implementations are not safe for concurrent use; the discrete-event
// engine is single-threaded, mirroring the paper's global-time Markov
// and simulation models.
type Network interface {
	// Acquire attempts to connect processor pid to any free resource
	// reachable through the network. On success it reserves the
	// resource, holds the path, and returns the grant. It fails when
	// every reachable resource is busy or every path is blocked —
	// the two blockage sources the paper distinguishes.
	Acquire(pid int) (Grant, bool)

	// ReleasePath tears down the network path of g after task
	// transmission completes. The reserved resource transitions from
	// "reserved for transmission" to "serving".
	ReleasePath(g Grant)

	// ReleaseResource frees g's resource after service completes.
	ReleaseResource(g Grant)

	// Processors returns the number of processor (input) connections.
	Processors() int

	// Ports returns the number of output ports.
	Ports() int

	// TotalResources returns the number of resources behind all ports.
	TotalResources() int

	// Name returns a short human-readable description of the network.
	Name() string
}

// Telemetry holds optional counters a Network may expose for the
// experiments: blockage accounting and routing effort.
type Telemetry struct {
	Attempts      int64 // Acquire calls
	Failures      int64 // Acquire calls returning false
	ResourceBlock int64 // failures with every reachable resource busy
	PathBlock     int64 // failures caused by network-path blockage only
	Rejects       int64 // in-network rejects (Omega backtracks)
	BoxVisits     int64 // interchange boxes traversed by granted requests
	Grants        int64 // successful Acquires
}

// TelemetrySource is implemented by networks that collect Telemetry.
type TelemetrySource interface {
	Telemetry() Telemetry
}

// RejectSource is an optional Network extension for networks that can
// reject a request inside the fabric (the paper's Omega reject/reroute
// at an interchange box). Rejects returns the cumulative in-network
// reject count of the fabric that serves processor pid — the same
// counter Telemetry().Rejects sums — in O(1), so the engine can turn
// rejects into probe events by reading it around each Acquire.
//
// It is an optimization, not a requirement: RejectsOf reads a network
// without it through Telemetry().Rejects. Wrappers that decorate or
// compose networks should forward it, as they forward
// AvailabilityHinter. One that forwards only TelemetrySource still
// reports every reject, at the price of a Telemetry call around each
// Acquire, which for a Partitioned sums every sub-network.
type RejectSource interface {
	Rejects(pid int) int64
}

// RejectsOf returns the reject counter to read for n: n itself when it
// implements RejectSource, else its Telemetry().Rejects (wrappers that
// do not forward RejectSource), else a constant 0 for a network that
// keeps no telemetry at all.
func RejectsOf(n Network) RejectSource {
	switch s := n.(type) {
	case RejectSource:
		return s
	case TelemetrySource:
		return telemetryRejects{s}
	}
	return noRejects{}
}

// telemetryRejects reads the reject counter out of a network's full
// Telemetry.
type telemetryRejects struct{ src TelemetrySource }

//lint:hotpath read around every Acquire when a probe is attached
func (t telemetryRejects) Rejects(int) int64 { return t.src.Telemetry().Rejects }

// noRejects is the counter of a network without telemetry.
type noRejects struct{}

//lint:hotpath read around every Acquire when a probe is attached
func (noRejects) Rejects(int) int64 { return 0 }

// AvailabilityHinter is an optional Network extension that lets the
// discrete-event engine's incremental wake path skip hopeless retries
// cheaply. It models the paper's status broadcast: a processor consults
// the broadcast availability bits before re-asserting a request, and
// stays quiet when the status says nothing is reachable.
//
// AcquireWouldFail reports whether an Acquire(pid) issued right now is
// certain to fail without entering the network. The contract is strict,
// because the engine's results must stay bit-for-bit identical to a
// full Acquire probe:
//
//   - When it returns true, the implementation must have updated its
//     telemetry exactly as the corresponding failed Acquire would have
//     (the engine will not call Acquire).
//   - When it returns false, the engine calls Acquire normally, which
//     may still fail — e.g. on in-network path blockage the aggregate
//     status bits cannot see. The call must leave telemetry untouched
//     in this case.
//
// Implementations are expected to answer in O(1) from incrementally
// maintained state; that is the whole point of the interface, since the
// failure paths it short-circuits are O(ports) scans on the crossbar
// and Omega networks.
type AvailabilityHinter interface {
	AcquireWouldFail(pid int) bool
}

// BlockHinter is an optional AvailabilityHinter extension for networks
// whose processors share status broadcasts in blocks: processors
// [k·span, (k+1)·span), span = HintSpan(), see the same status bits,
// so the hint gives all of them the same answer. It lets the engine
// treat a block of hopeless waiters as one, instead of probing each.
//
// AcquireWouldFailN(pid, n) answers for pid's whole block. When it
// returns true, it must have updated telemetry exactly as n calls to
// AcquireWouldFail(pid) would have; n = 0 is a pure query. When it
// returns false it must leave telemetry untouched, like
// AcquireWouldFail.
//
// A block's answer and its failure class may change only through
// Acquire, ReleasePath or ReleaseResource calls for processors of that
// block: the engine relies on this to charge an untouched hopeless
// block's waiters lazily, with one call when something next touches
// the block.
type BlockHinter interface {
	AvailabilityHinter
	HintSpan() int
	AcquireWouldFailN(pid, n int) bool
}

// FailureMemo is an optional BlockHinter extension for networks whose
// failed Acquire is a pure function of the block's state: a request
// refused once is refused again, with the same telemetry, until a
// grant or release in its block changes that state. It lets the engine
// stop re-routing a stuck block — live by the hint, but every waiter
// refused by the fabric — and book its repeat failures in one call.
//
// RecordFailures switches the memo on and reports whether the network
// supports it. It answers false when a failed attempt draws randomness
// (the Omega LaneRandom policy): skipping the attempt would then shift
// the random stream, not just the counters. It may also answer false
// when no block of the network can ever be stuck. A network records
// nothing until it is switched on, so runs that cannot use the memo
// pay nothing for it.
//
// Once switched on, the network remembers which processors' plain
// Acquire failed since their block's state last changed (a grant or a
// release in it). RepeatFailures(pid, waiters, n) then updates
// Telemetry and DetailCounters exactly as n more rounds of those
// failed Acquires would, one per remembered processor of pid's block,
// and changes nothing else; waiters is the number of processors the
// caller expects the memo to cover. The block's state must not have
// changed since the failures were recorded. Wrappers that decorate
// networks should forward it, as they forward BlockHinter.
type FailureMemo interface {
	BlockHinter
	RecordFailures() bool
	RepeatFailures(pid, waiters, n int)
}

// NamedCounter is one fine-grained telemetry counter exposed by a
// network: a stable name (used as a metrics key, so it must be
// deterministic across runs) and its value.
type NamedCounter struct {
	Name  string
	Value int64
}

// DetailSource is implemented by networks that expose fine-grained
// counters beyond the aggregate Telemetry struct — per-stage rejects,
// per-port grants, scan effort. The returned slice must be ordered
// deterministically (by construction, not by map iteration).
type DetailSource interface {
	DetailCounters() []NamedCounter
}

// Partitioned composes i independent sub-networks into one system, the
// paper's p/i×j×k notation: processors are assigned to sub-networks in
// contiguous blocks of j = p/i, and each sub-network owns its own output
// ports and resources. Requests never cross partitions — exactly the
// isolation that makes the paper's per-bus analysis of partitioned
// systems exact.
type Partitioned struct {
	subs     []Network
	hinters  []AvailabilityHinter // parallel to subs; nil entry = no hint
	blocks   []BlockHinter        // parallel to subs; nil entry = no whole-sub block hint
	memos    []FailureMemo        // parallel to subs; nil unless every sub has a whole-sub memo
	rejs     []RejectSource       // parallel to subs, from RejectsOf
	perSub   int                  // processors per sub-network
	ports    int
	resTotal int
	name     string

	portBase []int // cumulative port offset of each partition
	// grantPool recycles partGrant records so steady-state Acquire does
	// not allocate. A record returns to the pool at ReleaseResource: the
	// engine's task lifecycle releases the path at transmit end and the
	// resource at service end, so the resource release is always the
	// grant's final use.
	grantPool []*partGrant
}

// NewPartitioned builds a partitioned system from identical
// sub-networks. All sub-networks must have the same, positive processor
// count.
func NewPartitioned(subs []Network) *Partitioned {
	if len(subs) == 0 {
		panic("core: NewPartitioned requires at least one sub-network")
	}
	per := subs[0].Processors()
	if per <= 0 {
		panic(fmt.Sprintf("core: sub-networks must have at least one processor, got %d", per))
	}
	ports, res := 0, 0
	portBase := make([]int, len(subs))
	for i, s := range subs {
		if s.Processors() != per {
			panic("core: sub-networks must have identical processor counts")
		}
		portBase[i] = ports
		ports += s.Ports()
		res += s.TotalResources()
	}
	hinters := make([]AvailabilityHinter, len(subs))
	blocks := make([]BlockHinter, len(subs))
	memos := make([]FailureMemo, len(subs))
	rejs := make([]RejectSource, len(subs))
	for i, s := range subs {
		hinters[i], _ = s.(AvailabilityHinter)
		// A sub-network whose own blocks are narrower than the whole
		// sub-network cannot answer for a block of span per.
		if b, ok := s.(BlockHinter); ok && b.HintSpan() >= per {
			blocks[i] = b
			memos[i], _ = s.(FailureMemo)
		}
		rejs[i] = RejectsOf(s)
	}
	// The engine defers a stuck block only if it can book the block's
	// repeat failures, so the capability is all or nothing.
	for _, m := range memos {
		if m == nil {
			memos = nil
			break
		}
	}
	return &Partitioned{
		subs:     subs,
		hinters:  hinters,
		blocks:   blocks,
		memos:    memos,
		rejs:     rejs,
		perSub:   per,
		ports:    ports,
		resTotal: res,
		name:     fmt.Sprintf("%dx(%s)", len(subs), subs[0].Name()),
		portBase: portBase,
	}
}

// partGrant wraps a sub-network grant with its partition index.
type partGrant struct {
	sub   int
	inner Grant
}

// Acquire implements Network by delegating to pid's partition.
//
//lint:hotpath called once per allocation attempt in the event loop
func (p *Partitioned) Acquire(pid int) (Grant, bool) {
	sub := pid / p.perSub
	if sub < 0 || sub >= len(p.subs) {
		panic(fmt.Sprintf("core: processor %d outside partitioned system", pid))
	}
	g, ok := p.subs[sub].Acquire(pid % p.perSub)
	if !ok {
		return Grant{}, false
	}
	var pg *partGrant
	if n := len(p.grantPool); n > 0 {
		pg = p.grantPool[n-1]
		p.grantPool = p.grantPool[:n-1]
	} else {
		//lint:ignore hotalloc cold-pool mint, amortized to zero once the pool warms; pinned by TestRunSteadyStateZeroAlloc
		pg = new(partGrant)
	}
	pg.sub, pg.inner = sub, g
	return Grant{
		Processor: pid,
		Port:      p.portBase[sub] + g.Port,
		Path:      pg,
	}, true
}

// AcquireWouldFail implements AvailabilityHinter by consulting pid's
// own partition: requests never cross partitions, so a release in one
// sub-network can only unblock that sub-network's processors — this is
// exactly the retry-set narrowing the engine wants. A sub-network
// without a hint answers false (the engine falls back to Acquire).
//
//lint:hotpath probed by every wake pass
func (p *Partitioned) AcquireWouldFail(pid int) bool {
	sub := pid / p.perSub
	if sub < 0 || sub >= len(p.subs) {
		panic(fmt.Sprintf("core: processor %d outside partitioned system", pid))
	}
	if h := p.hinters[sub]; h != nil {
		return h.AcquireWouldFail(pid % p.perSub)
	}
	return false
}

// HintSpan implements BlockHinter: each sub-network broadcasts its own
// status to its own processors.
func (p *Partitioned) HintSpan() int { return p.perSub }

// AcquireWouldFailN implements BlockHinter by delegating to pid's
// partition. A sub-network without a block hint answers false, so the
// engine probes its waiters one by one as before.
//
//lint:hotpath charges a hopeless block of waiters in one call
func (p *Partitioned) AcquireWouldFailN(pid, n int) bool {
	sub := pid / p.perSub
	if sub < 0 || sub >= len(p.subs) {
		panic(fmt.Sprintf("core: processor %d outside partitioned system", pid))
	}
	if b := p.blocks[sub]; b != nil {
		return b.AcquireWouldFailN(pid%p.perSub, n)
	}
	return false
}

// RecordFailures implements FailureMemo by switching on every
// sub-network's memo. It answers false when some sub-network has no
// whole-sub memo or declines to record.
func (p *Partitioned) RecordFailures() bool {
	if p.memos == nil {
		return false
	}
	ok := true
	for _, m := range p.memos {
		if !m.RecordFailures() {
			ok = false
		}
	}
	return ok
}

// RepeatFailures implements FailureMemo by delegating to pid's
// partition, the block whose failures the memo holds.
//
//lint:hotpath books a stuck block's repeat failures in one call
func (p *Partitioned) RepeatFailures(pid, waiters, n int) {
	p.memos[pid/p.perSub].RepeatFailures(pid%p.perSub, waiters, n)
}

// Rejects implements RejectSource with pid's own partition's counter:
// an Acquire(pid) enters only that sub-network, so it is the only
// counter the call can move.
//
//lint:hotpath read around every Acquire when a probe is attached
func (p *Partitioned) Rejects(pid int) int64 {
	return p.rejs[pid/p.perSub].Rejects(pid % p.perSub)
}

// ReleasePath implements Network.
//
//lint:hotpath
func (p *Partitioned) ReleasePath(g Grant) {
	pg := g.Path.(*partGrant)
	p.subs[pg.sub].ReleasePath(pg.inner)
}

// ReleaseResource implements Network. This is the grant's final use
// (see grantPool), so the partGrant record is recycled here.
//
//lint:hotpath
func (p *Partitioned) ReleaseResource(g Grant) {
	pg := g.Path.(*partGrant)
	p.subs[pg.sub].ReleaseResource(pg.inner)
	//lint:ignore hotalloc pool append reuses capacity after warm-up; pinned by TestRunSteadyStateZeroAlloc
	p.grantPool = append(p.grantPool, pg)
}

// Processors implements Network.
func (p *Partitioned) Processors() int { return p.perSub * len(p.subs) }

// Ports implements Network.
func (p *Partitioned) Ports() int { return p.ports }

// TotalResources implements Network.
func (p *Partitioned) TotalResources() int { return p.resTotal }

// Name implements Network.
func (p *Partitioned) Name() string { return p.name }

// Telemetry aggregates telemetry across partitions that expose it.
func (p *Partitioned) Telemetry() Telemetry {
	var t Telemetry
	for _, s := range p.subs {
		if ts, ok := s.(TelemetrySource); ok {
			st := ts.Telemetry()
			t.Attempts += st.Attempts
			t.Failures += st.Failures
			t.ResourceBlock += st.ResourceBlock
			t.PathBlock += st.PathBlock
			t.Rejects += st.Rejects
			t.BoxVisits += st.BoxVisits
			t.Grants += st.Grants
		}
	}
	return t
}

// DetailCounters aggregates fine-grained counters across partitions,
// prefixing each name with its partition index so per-partition load
// imbalance stays visible.
func (p *Partitioned) DetailCounters() []NamedCounter {
	var out []NamedCounter
	for i, s := range p.subs {
		if ds, ok := s.(DetailSource); ok {
			for _, c := range ds.DetailCounters() {
				out = append(out, NamedCounter{
					Name:  fmt.Sprintf("sub%02d.%s", i, c.Name),
					Value: c.Value,
				})
			}
		}
	}
	return out
}

var _ Network = (*Partitioned)(nil)
var _ TelemetrySource = (*Partitioned)(nil)
var _ DetailSource = (*Partitioned)(nil)
var _ BlockHinter = (*Partitioned)(nil)
var _ FailureMemo = (*Partitioned)(nil)
var _ RejectSource = (*Partitioned)(nil)

// Package omega implements the multistage-dynamic-network RSIN of paper
// Section V: an N×N network of 2×2 interchange boxes whose distributed
// control routes destination-less resource requests. The package is
// named for its primary instance, Lawrie's Omega network, but the
// paper's box algorithm "is applicable to other types of multistage
// networks as well" — the wiring between stages is pluggable, and the
// indirect binary n-cube of the paper's 16/1×16×16 CUBE/2 example is
// provided alongside the Omega wiring.
//
// Topology. For N = 2^n, the network has n stages of N/2 interchange
// boxes. A box can be set straight or exchange; two circuits may share
// a box when they use distinct input and output lanes (the leftover
// pairing is then forced, so per-wire occupancy fully captures
// box-state conflicts). The wiring determines which wire positions a
// stage's boxes pair and how output wires map to the next stage's
// input positions.
//
// Distributed scheduling (paper Fig. 10). Status information flows
// backward: each box output port carries a resource-availability bit —
// whether at least one output port reachable downstream has a free bus
// and a free resource. The network keeps one status word, bit j set iff
// output port j has a free bus and a free resource (the paper's Y
// signal), updated incrementally by every grant and release; the bit of
// any box output wire is then one AND of that word with the wire's
// static reach set. Requests flow forward: at each box the request
// is switched toward an output lane whose wire is unoccupied and whose
// availability bit is set; when no lane qualifies the request is
// rejected back to the previous stage, which tries its alternate lane —
// the reject/reroute mechanism of the paper. Because assumption (c)
// makes status propagation instantaneous, the search is a depth-first
// traversal whose dead-end descents are exactly the rejects the
// hardware would generate. The same search serves every mode: live
// routing reads the current word, the two-phase batch reads a word
// frozen in phase 1, and the typed network reads a per-type word.
//
// The package also provides address-mapped tag routing (the
// conventional-network baseline of the paper's blocking-probability
// comparison): a request directed at a specific output port follows the
// unique path selected by the destination, and blocks if any wire on it
// is busy.
package omega

import (
	"fmt"
	"math/bits"

	"rsin/internal/core"
	"rsin/internal/invariant"
	"rsin/internal/rng"
)

// LanePolicy selects the order in which a box offers its output lanes
// to a request when both lanes qualify.
type LanePolicy int

const (
	// LaneUpperFirst always tries the lower-indexed output wire first —
	// a deterministic hardware priority.
	LaneUpperFirst LanePolicy = iota
	// LaneRandom picks the first lane uniformly at random, the
	// randomized variant the paper suggests for avoiding undue conflict
	// when synchronized requests enter together.
	LaneRandom
)

// String returns the policy name.
func (p LanePolicy) String() string {
	switch p {
	case LaneUpperFirst:
		return "upper-first"
	case LaneRandom:
		return "random"
	default:
		return fmt.Sprintf("LanePolicy(%d)", int(p))
	}
}

// Wiring selects the multistage interconnection pattern.
type Wiring int

const (
	// OmegaWiring is Lawrie's Omega network: a perfect shuffle precedes
	// every stage, and boxes pair adjacent wire positions.
	OmegaWiring Wiring = iota
	// CubeWiring is Pease's indirect binary n-cube: stage s pairs the
	// wire positions that differ in bit s, with straight-through wiring
	// between stages.
	CubeWiring
)

// String returns the wiring's name as the paper writes it.
func (w Wiring) String() string {
	switch w {
	case OmegaWiring:
		return "OMEGA"
	case CubeWiring:
		return "CUBE"
	default:
		return fmt.Sprintf("Wiring(%d)", int(w))
	}
}

// Omega is an N×N multistage RSIN with perPort resources behind each of
// its N output ports.
type Omega struct {
	n       int // log2(N)
	size    int // N
	perPort int
	policy  LanePolicy
	wiring  Wiring
	rnd     *rng.Source // used only by LaneRandom
	reroute bool        // backtracking reroute enabled (ablation: off = reject to source)

	portBusy []bool
	free     []int
	// elig is the only store of port eligibility: bit j is set iff port
	// j has an idle bus and ≥1 free resource (the paper's Y signal).
	// Every grant and release keeps it current, so a box output wire's
	// availability bit is reach[s][w]&elig and the
	// core.AvailabilityHinter answer is elig != 0, both O(1).
	elig uint64
	// ver is the state version: every change of circuits, port buses or
	// free resources bumps it, so a failed Acquire repeats identically
	// while it stands (core.FailureMemo). It sits beside elig, which
	// the same changes write.
	ver    uint64
	outOcc [][]bool // [stage][wire] output-wire occupancy
	// reach[s][w] is the bitmask of output ports statically reachable
	// from the wire leaving stage s at position w.
	reach [][]uint64

	// pathPool recycles grant path records (the Partitioned dispatcher's
	// pool pattern): Acquire pops one, the final ReleaseResource pushes
	// it back, so steady-state grants allocate nothing. Stored as
	// pointers so placing one in core.Grant.Path boxes a pointer — free
	// — instead of copying a slice header into the interface.
	pathPool []*pathGrant

	tel core.Telemetry
	// Fine-grained telemetry (core.DetailSource): where in the pipeline
	// rejects happen and how grants spread over the output ports.
	rejectsByStage []int64
	portGrants     []int64

	// Failure memo (core.FailureMemo): once recording is switched on,
	// failed holds the processors whose plain Acquire failed at state
	// version failedAt.
	recording bool
	failedAt  uint64
	failed    uint64
}

// maxStages bounds the stage count (N ≤ 64), so a stage-counter
// snapshot fits in a fixed array.
const maxStages = 6

// Option configures a network.
type Option func(*Omega)

// WithLanePolicy sets the lane-preference policy (default LaneUpperFirst).
func WithLanePolicy(p LanePolicy) Option { return func(o *Omega) { o.policy = p } }

// WithSeed seeds the internal generator used by LaneRandom.
func WithSeed(seed uint64) Option { return func(o *Omega) { o.rnd = rng.New(seed) } }

// WithoutReroute disables in-network rerouting: a rejected request
// fails immediately instead of backtracking to try alternate paths.
// Used by the reroute-policy ablation.
func WithoutReroute() Option { return func(o *Omega) { o.reroute = false } }

// WithWiring selects the interconnection pattern (default OmegaWiring).
func WithWiring(w Wiring) Option { return func(o *Omega) { o.wiring = w } }

// New returns an N×N multistage RSIN with perPort resources per output
// port. N must be a power of two with 2 ≤ N ≤ 64 (the reach sets are
// 64-bit masks; the paper's systems are at most 16×16).
func New(n, perPort int, opts ...Option) *Omega {
	if n < 2 || n > 64 || n&(n-1) != 0 {
		panic(fmt.Sprintf("omega: size %d is not a power of two in [2,64]", n))
	}
	if perPort <= 0 {
		panic("omega: perPort must be positive")
	}
	stages := bits.Len(uint(n)) - 1
	o := &Omega{
		n:        stages,
		size:     n,
		perPort:  perPort,
		policy:   LaneUpperFirst,
		wiring:   OmegaWiring,
		rnd:      rng.New(0x0177e6a5),
		reroute:  true,
		portBusy: make([]bool, n),
		free:     make([]int, n),
		outOcc:   make([][]bool, stages),

		rejectsByStage: make([]int64, stages),
		portGrants:     make([]int64, n),
	}
	for s := range o.outOcc {
		o.outOcc[s] = make([]bool, n)
	}
	for _, opt := range opts {
		//lint:ignore puredet functional options from the construction site; applied once while the network is built, before any simulation event runs
		opt(o)
	}
	o.buildReach()
	o.Reset()
	return o
}

// NewCube returns an indirect-binary-n-cube RSIN (the paper's CUBE
// configuration), equivalent to New with WithWiring(CubeWiring).
func NewCube(n, perPort int, opts ...Option) *Omega {
	return New(n, perPort, append([]Option{WithWiring(CubeWiring)}, opts...)...)
}

// shuffle is the perfect shuffle: rotate the n-bit wire index left by 1.
//
//lint:hotpath
func (o *Omega) shuffle(pos int) int {
	return (pos<<1 | pos>>(o.n-1)) & (o.size - 1)
}

// entry returns the stage-0 input wire position of processor pid.
//
//lint:hotpath
func (o *Omega) entry(pid int) int {
	switch o.wiring {
	case OmegaWiring:
		return o.shuffle(pid)
	case CubeWiring:
		return pid
	default:
		panic("omega: unknown wiring")
	}
}

// pair returns the other wire of the box that owns input/output wire
// pos at stage s. A box's two input wires and two output wires carry
// the same pair of position indices: straight keeps the index, exchange
// swaps to the partner.
//
//lint:hotpath
func (o *Omega) pair(s, pos int) int {
	switch o.wiring {
	case OmegaWiring:
		return pos ^ 1
	case CubeWiring:
		return pos ^ (1 << s)
	default:
		panic("omega: unknown wiring")
	}
}

// next maps an output wire of stage s to the input position of stage
// s+1.
//
//lint:hotpath
func (o *Omega) next(s, pos int) int {
	switch o.wiring {
	case OmegaWiring:
		return o.shuffle(pos)
	case CubeWiring:
		return pos
	default:
		panic("omega: unknown wiring")
	}
}

// buildReach precomputes, for every stage-output wire, the bitmask of
// network output ports statically reachable downstream.
func (o *Omega) buildReach() {
	o.reach = make([][]uint64, o.n)
	// Last stage: wire w IS output port w.
	o.reach[o.n-1] = make([]uint64, o.size)
	for w := 0; w < o.size; w++ {
		o.reach[o.n-1][w] = 1 << uint(w)
	}
	for s := o.n - 2; s >= 0; s-- {
		o.reach[s] = make([]uint64, o.size)
		for w := 0; w < o.size; w++ {
			in := o.next(s, w)
			o.reach[s][w] = o.reach[s+1][in] | o.reach[s+1][o.pair(s+1, in)]
		}
	}
}

// portEligible reports whether output port j can accept a new request:
// bus free and at least one free resource (the paper's Y signal).
//
//lint:hotpath
func (o *Omega) portEligible(j int) bool {
	return !o.portBusy[j] && o.free[j] > 0
}

// sync recomputes port j's bit of the status word after its bus or
// resource state changed.
//
//lint:hotpath
func (o *Omega) sync(j int) {
	if o.portEligible(j) {
		o.elig |= 1 << uint(j)
	} else {
		o.elig &^= 1 << uint(j)
	}
}

// pathGrant records the claimed wires, innermost (last stage) first.
type pathGrant struct {
	wires []int
}

// takePath pops a recycled path record, or mints one on a cold pool.
// The wire slice comes back emptied with its capacity intact, so the
// mint happens at most once per concurrently outstanding grant.
//
//lint:hotpath
func (o *Omega) takePath() *pathGrant {
	if n := len(o.pathPool); n > 0 {
		pg := o.pathPool[n-1]
		o.pathPool = o.pathPool[:n-1]
		pg.wires = pg.wires[:0]
		return pg
	}
	//lint:ignore hotalloc cold-pool mint, amortized to zero once the pool warms; pinned by TestOmegaAcquireZeroAlloc
	return &pathGrant{wires: make([]int, 0, o.n)}
}

// putPath returns a path record to the pool.
//
//lint:hotpath
func (o *Omega) putPath(pg *pathGrant) {
	//lint:ignore hotalloc pool append reuses capacity after warm-up; pinned by TestOmegaAcquireZeroAlloc
	o.pathPool = append(o.pathPool, pg)
}

// Acquire implements core.Network: route a destination-less request
// from processor pid to any eligible output port, using
// availability-guided switching with reject/backtrack.
//
//lint:hotpath called once per allocation attempt in the event loop
func (o *Omega) Acquire(pid int) (core.Grant, bool) {
	g, ok := o.acquire(pid, o.elig, o.elig)
	if !ok && o.recording {
		if o.failedAt != o.ver {
			o.failedAt, o.failed = o.ver, 0
		}
		o.failed |= 1 << uint(pid)
	}
	return g, ok
}

// RecordFailures implements core.FailureMemo. A LaneRandom box draws
// from the generator on every visit, failed routes included, so only
// the deterministic lane policy can have its failures repeated. A 2×2
// network declines too: its one box reaches every port, so a request
// fails only when no port is eligible, which the block hint already
// answers, and no block of it is ever stuck.
func (o *Omega) RecordFailures() bool {
	if o.policy == LaneRandom || o.n == 1 {
		return false
	}
	o.recording = true
	return true
}

// RepeatFailures implements core.FailureMemo. The memo holds only who
// failed: one round of their Acquires is re-run here, and its
// telemetry is then booked n−1 more times. A failed route frees every
// wire it tried, so the state, the path pool and each attempt's route
// are exactly as they were; only the counters move. Recording who
// failed costs one OR per failure, so networks that rarely repeat pay
// almost nothing, and the one round re-run per call is small beside
// the walks a stuck block defers.
//
//lint:hotpath books a stuck block's repeat failures in one call
func (o *Omega) RepeatFailures(pid, waiters, n int) {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	if invariant.Enabled() {
		invariant.Assert(o.failedAt == o.ver, "omega",
			"failure memo of state version %d repeated at version %d", o.failedAt, o.ver)
		invariant.Assert(bits.OnesCount64(o.failed) == waiters, "omega",
			"failure memo covers %d processors, caller expects %d", bits.OnesCount64(o.failed), waiters)
	}
	if n == 0 {
		return
	}
	tel := o.tel
	var stage [maxStages]int64
	copy(stage[:], o.rejectsByStage)
	for m := o.failed; m != 0; m &= m - 1 {
		if _, ok := o.acquire(bits.TrailingZeros64(m), o.elig, o.elig); ok {
			panic(fmt.Sprintf("omega: recorded failure of processor %d granted on repeat", bits.TrailingZeros64(m)))
		}
	}
	k := int64(n - 1)
	o.tel.Attempts += k * (o.tel.Attempts - tel.Attempts)
	o.tel.Failures += k * (o.tel.Failures - tel.Failures)
	o.tel.ResourceBlock += k * (o.tel.ResourceBlock - tel.ResourceBlock)
	o.tel.PathBlock += k * (o.tel.PathBlock - tel.PathBlock)
	o.tel.Rejects += k * (o.tel.Rejects - tel.Rejects)
	o.tel.BoxVisits += k * (o.tel.BoxVisits - tel.BoxVisits)
	for s := range o.rejectsByStage {
		o.rejectsByStage[s] += k * (o.rejectsByStage[s] - stage[s])
	}
}

// acquire routes pid's request with box outputs judged by status and
// last-stage ports by live (see route), then claims the port reached.
// A zero status word is the phase-1 answer that every port is down:
// the request fails as a resource block without entering the network.
//
//lint:hotpath the shared half of Acquire, AcquireBatch and AcquireType
func (o *Omega) acquire(pid int, status, live uint64) (core.Grant, bool) {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	o.tel.Attempts++
	if status == 0 {
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	pg := o.takePath()
	port, ok := o.route(0, o.entry(pid), status, live, &pg.wires)
	if !ok {
		o.putPath(pg)
		o.tel.Failures++
		o.tel.PathBlock++
		if invariant.Enabled() {
			o.verify()
		}
		return core.Grant{}, false
	}
	// The paper's status-bit consistency guarantee: a forward-routed
	// request never lands on a port whose status bit was clear —
	// eligibility only decreases while a frozen word is held, so a
	// port that is live-eligible at grant time had its bit set.
	if invariant.Enabled() {
		invariant.Assert(status&(1<<uint(port)) != 0, "omega",
			"request granted port %d whose status bit was clear", port)
	}
	o.claim(port)
	return core.Grant{Processor: pid, Port: port, Path: pg}, true
}

// claim reserves the bus and one resource of the eligible port a
// request reached, and counts the grant.
//
//lint:hotpath
func (o *Omega) claim(port int) {
	if invariant.Enabled() {
		invariant.Assert(o.portEligible(port), "omega",
			"routed to ineligible port %d (busy=%v free=%d)", port, o.portBusy[port], o.free[port])
	}
	o.portBusy[port] = true
	o.elig &^= 1 << uint(port)
	o.free[port]--
	o.ver++
	o.tel.Grants++
	o.portGrants[port]++
	if invariant.Enabled() {
		o.verify()
	}
}

// AcquireWouldFail implements core.AvailabilityHinter: when every
// output port's Y signal is down (no free bus with a free resource
// anywhere), Acquire is certain to fail on its resource-block shortcut,
// and the hint replicates that shortcut's telemetry exactly. When some
// port is eligible the hint answers false — the request may still
// path-block inside the boxes, which only the full routing DFS (with
// its per-stage reject telemetry) can decide.
//
//lint:hotpath probed by every wake pass
func (o *Omega) AcquireWouldFail(pid int) bool { return o.AcquireWouldFailN(pid, 1) }

// HintSpan implements core.BlockHinter: the status word reaches every
// input through the same boxes.
func (o *Omega) HintSpan() int { return o.size }

// AcquireWouldFailN implements core.BlockHinter: the answer ignores
// pid, and a true answer accounts n resource-block shortcuts at once.
//
//lint:hotpath charges a hopeless block of waiters in one call
func (o *Omega) AcquireWouldFailN(pid, n int) bool {
	if pid < 0 || pid >= o.size {
		panic(fmt.Sprintf("omega: processor %d out of range", pid))
	}
	if o.elig != 0 {
		return false
	}
	o.tel.Attempts += int64(n)
	o.tel.Failures += int64(n)
	o.tel.ResourceBlock += int64(n)
	return true
}

// route performs the availability-guided DFS from the input wire at
// position pos of stage s. A box output wire w qualifies when it is
// unoccupied and its availability bit, reach[s][w]&status, is set; a
// last-stage wire is an output port and qualifies when its bit is set
// in live. On success it claims the wires it used, appends them to
// *wires (last stage first), and returns the output port.
//
//lint:hotpath the routing DFS runs inside every Acquire
func (o *Omega) route(s, pos int, status, live uint64, wires *[]int) (int, bool) {
	o.tel.BoxVisits++
	outs := [2]int{pos, o.pair(s, pos)}
	if outs[0] > outs[1] {
		outs[0], outs[1] = outs[1], outs[0]
	}
	first := 0
	if o.policy == LaneRandom {
		first = o.rnd.Intn(2)
	}
	for k := 0; k < 2; k++ {
		out := outs[first^k]
		if o.outOcc[s][out] {
			continue
		}
		if s == o.n-1 {
			// out is an output port.
			if live&(1<<uint(out)) == 0 {
				continue
			}
			o.outOcc[s][out] = true
			//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
			*wires = append(*wires, out)
			return out, true
		}
		if o.reach[s][out]&status == 0 {
			continue
		}
		o.outOcc[s][out] = true
		port, ok := o.route(s+1, o.next(s, out), status, live, wires)
		if ok {
			//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
			*wires = append(*wires, out)
			return port, true
		}
		// Downstream dead end: a reject signal travels back and this
		// box re-examines the request for its alternate lane (or
		// propagates the reject). The re-examination is a real
		// traversal of this box's control logic, so it counts as a
		// box visit — giving the paper's 3.5-boxes-per-request average
		// in the Fig. 11 example.
		o.outOcc[s][out] = false
		o.tel.Rejects++
		o.tel.BoxVisits++
		o.rejectsByStage[s]++
		if !o.reroute {
			return 0, false
		}
	}
	return 0, false
}

// AcquireBatch routes a set of simultaneous requests with the paper's
// two-phase operation (Fig. 11): phase 1 propagates the status of the
// resources back through the boxes and freezes the availability
// registers; phase 2 propagates all the requests against that frozen —
// and progressively outdated — status. Wrong decisions therefore occur
// exactly as in the paper: a request can chase a resource that a
// concurrent request has just claimed, be rejected, and reroute.
//
// The returned slices are parallel to pids; ok[i] reports whether
// request i was granted.
func (o *Omega) AcquireBatch(pids []int) ([]core.Grant, []bool) {
	// Phase 1: every box output's register is reach&status, so freezing
	// the status word freezes them all.
	status := o.elig
	grants := make([]core.Grant, len(pids))
	oks := make([]bool, len(pids))
	for i, pid := range pids {
		grants[i], oks[i] = o.acquire(pid, status, o.elig)
	}
	return grants, oks
}

// AcquireTag routes a request from pid to the specific output port dst
// using conventional destination-tag routing (the address-mapping
// baseline): the path is unique, and the request blocks if any wire on
// it is occupied or the port is ineligible. On success the path and one
// resource are claimed exactly as in Acquire. The routing decision at
// each box is generic over the wiring: the request exits through the
// output wire whose static reach set contains dst.
//
//lint:hotpath the tag-routing baseline's per-request path
func (o *Omega) AcquireTag(pid, dst int) (core.Grant, bool) {
	if pid < 0 || pid >= o.size || dst < 0 || dst >= o.size {
		panic("omega: AcquireTag index out of range")
	}
	o.tel.Attempts++
	if o.elig&(1<<uint(dst)) == 0 {
		o.tel.Failures++
		o.tel.ResourceBlock++
		return core.Grant{}, false
	}
	pg := o.takePath()
	pos := o.entry(pid)
	dstBit := uint64(1) << uint(dst)
	for s := 0; s < o.n; s++ {
		o.tel.BoxVisits++
		out := pos
		if o.reach[s][out]&dstBit == 0 {
			out = o.pair(s, pos)
		}
		if o.reach[s][out]&dstBit == 0 {
			panic("omega: destination unreachable (wiring bug)")
		}
		if o.outOcc[s][out] {
			// Tag routing cannot reroute: the request is blocked.
			for i, w := range pg.wires {
				o.outOcc[i][w] = false
			}
			o.putPath(pg)
			o.tel.Failures++
			o.tel.PathBlock++
			return core.Grant{}, false
		}
		o.outOcc[s][out] = true
		//lint:ignore hotalloc append into the pooled record's retained capacity; pinned by TestOmegaAcquireZeroAlloc
		pg.wires = append(pg.wires, out)
		pos = o.next(s, out)
	}
	port := pg.wires[o.n-1]
	if port != dst {
		panic("omega: tag routing reached wrong port")
	}
	o.claim(port)
	// The tag loop collected the wires outermost-first; ReleasePath
	// expects innermost-first, so reverse in place.
	for i, j := 0, len(pg.wires)-1; i < j; i, j = i+1, j-1 {
		pg.wires[i], pg.wires[j] = pg.wires[j], pg.wires[i]
	}
	return core.Grant{Processor: pid, Port: port, Path: pg}, true
}

// verify panics with a *invariant.Violation when the dynamic state is
// structurally inconsistent. Callers guard it with invariant.Enabled(),
// so with checks off the hot paths pay no call.
func (o *Omega) verify() {
	if err := o.VerifyState(); err != nil {
		panic(err)
	}
}

// VerifyState checks the structural consistency of the network's
// dynamic state: every stage carries the same number of circuits (a
// routed circuit claims exactly one output wire per stage), the
// last-stage wire occupancy mirrors the port-busy flags (the wire
// leaving stage n−1 at position w is port w), and free-resource
// counts stay within [0, perPort], and the status word matches a
// bit-by-bit recount of the port state.
func (o *Omega) VerifyState() error {
	occ0 := 0
	for w := 0; w < o.size; w++ {
		if o.outOcc[0][w] {
			occ0++
		}
	}
	for s := 1; s < o.n; s++ {
		c := 0
		for w := 0; w < o.size; w++ {
			if o.outOcc[s][w] {
				c++
			}
		}
		if c != occ0 {
			return invariant.Errorf("omega",
				"stage %d carries %d circuits while stage 0 carries %d", s, c, occ0)
		}
	}
	for w := 0; w < o.size; w++ {
		if o.outOcc[o.n-1][w] != o.portBusy[w] {
			return invariant.Errorf("omega",
				"port %d: last-stage wire occupancy %v disagrees with port-busy flag %v",
				w, o.outOcc[o.n-1][w], o.portBusy[w])
		}
	}
	for j, f := range o.free {
		if f < 0 || f > o.perPort {
			return invariant.Errorf("omega",
				"port %d free-resource count %d outside [0,%d]", j, f, o.perPort)
		}
	}
	var recount uint64
	for j := 0; j < o.size; j++ {
		if o.portEligible(j) {
			recount |= 1 << uint(j)
		}
	}
	if recount != o.elig {
		return invariant.Errorf("omega",
			"status word drifted: incremental %#x, recount %#x", o.elig, recount)
	}
	return nil
}

// ReleasePath implements core.Network: free the circuit's wires and the
// output bus; the resource keeps serving.
//
//lint:hotpath
func (o *Omega) ReleasePath(g core.Grant) {
	pg := g.Path.(*pathGrant)
	// wires were appended innermost-first: wires[0] is the last stage.
	for i, w := range pg.wires {
		s := o.n - 1 - i
		if !o.outOcc[s][w] {
			panic("omega: ReleasePath on free wire")
		}
		o.outOcc[s][w] = false
	}
	if !o.portBusy[g.Port] {
		panic("omega: ReleasePath with idle port")
	}
	o.portBusy[g.Port] = false
	o.sync(g.Port)
	o.ver++
	if invariant.Enabled() {
		o.verify()
	}
}

// ReleaseResource implements core.Network. This is the grant's final
// release (ReleasePath precedes it), so the path record goes back to
// the pool here.
//
//lint:hotpath
func (o *Omega) ReleaseResource(g core.Grant) {
	if o.free[g.Port] >= o.perPort {
		panic("omega: ReleaseResource overflow")
	}
	o.free[g.Port]++
	o.sync(g.Port)
	o.ver++
	if pg, ok := g.Path.(*pathGrant); ok {
		o.putPath(pg)
	}
}

// Processors implements core.Network.
func (o *Omega) Processors() int { return o.size }

// Ports implements core.Network.
func (o *Omega) Ports() int { return o.size }

// TotalResources implements core.Network.
func (o *Omega) TotalResources() int { return o.size * o.perPort }

// Name implements core.Network.
func (o *Omega) Name() string {
	return fmt.Sprintf("%s(%dx%d,r=%d)", o.wiring, o.size, o.size, o.perPort)
}

// Telemetry implements core.TelemetrySource.
func (o *Omega) Telemetry() core.Telemetry { return o.tel }

// Rejects implements core.RejectSource: every processor is served by
// the one fabric, so pid does not matter.
//
//lint:hotpath read around every Acquire when a probe is attached
func (o *Omega) Rejects(int) int64 { return o.tel.Rejects }

// DetailCounters implements core.DetailSource: rejects broken down by
// the stage whose box bounced the request (where in the pipeline dead
// ends concentrate) and the per-port grant distribution.
func (o *Omega) DetailCounters() []core.NamedCounter {
	out := make([]core.NamedCounter, 0, o.n+o.size)
	for s, r := range o.rejectsByStage {
		out = append(out, core.NamedCounter{Name: fmt.Sprintf("omega.rejects.stage%02d", s), Value: r})
	}
	for j, g := range o.portGrants {
		out = append(out, core.NamedCounter{Name: fmt.Sprintf("omega.port_grants.%03d", j), Value: g})
	}
	return out
}

// Stages returns the number of interchange-box stages (log2 N).
func (o *Omega) Stages() int { return o.n }

// EntryWire returns the stage-0 input wire position of processor pid.
// Together with BoxOutputs and NextInput it exposes the wire-level DAG
// for external schedulers (e.g. the max-flow optimal allocator).
func (o *Omega) EntryWire(pid int) int { return o.entry(pid) }

// BoxOutputs returns the two candidate output wires of the box entered
// at input wire pos of stage s.
func (o *Omega) BoxOutputs(s, pos int) [2]int {
	a, b := pos, o.pair(s, pos)
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// NextInput maps an output wire of stage s to the input position of
// stage s+1.
func (o *Omega) NextInput(s, pos int) int { return o.next(s, pos) }

// WireOccupied reports whether the output wire at position w of stage s
// currently carries a circuit.
func (o *Omega) WireOccupied(s, w int) bool { return o.outOcc[s][w] }

// PortEligible reports whether output port j can accept a new request
// (bus free and at least one free resource) — the paper's Y signal.
func (o *Omega) PortEligible(j int) bool { return o.portEligible(j) }

// WiringKind returns the network's interconnection pattern.
func (o *Omega) WiringKind() Wiring { return o.wiring }

// Reset clears all dynamic state (circuits, reservations, telemetry),
// returning the network to cold-start. Used by the static blocking
// experiments that evaluate many independent request sets.
func (o *Omega) Reset() {
	for i := range o.portBusy {
		o.portBusy[i] = false
		o.free[i] = o.perPort
	}
	o.elig = ^uint64(0) >> uint(64-o.size)
	for s := range o.outOcc {
		for w := range o.outOcc[s] {
			o.outOcc[s][w] = false
		}
	}
	o.tel = core.Telemetry{}
	for i := range o.rejectsByStage {
		o.rejectsByStage[i] = 0
	}
	for i := range o.portGrants {
		o.portGrants[i] = 0
	}
	o.ver++
}

// SetResourceAvailability overrides the free-resource count of port j
// (clamped to [0, perPort]). The static blocking experiments use it to
// impose the paper's "resources 0, 1, 2 are available, others busy"
// scenarios.
func (o *Omega) SetResourceAvailability(j, freeCount int) {
	if freeCount < 0 {
		freeCount = 0
	}
	if freeCount > o.perPort {
		freeCount = o.perPort
	}
	o.free[j] = freeCount
	o.sync(j)
	o.ver++
}

// FreeResources returns the current free-resource count at port j.
func (o *Omega) FreeResources(j int) int { return o.free[j] }

var _ core.Network = (*Omega)(nil)
var _ core.TelemetrySource = (*Omega)(nil)
var _ core.DetailSource = (*Omega)(nil)
var _ core.BlockHinter = (*Omega)(nil)
var _ core.FailureMemo = (*Omega)(nil)
var _ core.RejectSource = (*Omega)(nil)

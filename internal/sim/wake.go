package sim

import (
	"math/bits"

	"rsin/internal/invariant"
)

// waiterSet is the incremental wake engine's registry of blocked
// processors: exactly those that are idle with a nonempty queue, i.e.
// whose most recent allocation attempt failed. It is a fixed-size
// bitset so the engine's release-time retry scan walks only the
// waiters (in index order, via next) instead of rescanning all p
// processors, while add/remove/contains stay O(1).
//
// The processors are grouped in blocks of span, the groups that share
// one status broadcast (core.BlockHinter). The set counts the members
// of each block and keeps a bitset of the blocks that have any, so a
// wake pass can treat a hopeless block as one unit.
type waiterSet struct {
	words  []uint64
	n      int // current member count
	span   int
	block  []int32  // block[pid] = pid / span, looked up, not divided, on the hot paths
	count  []int    // members per block
	blocks []uint64 // bit b set iff block b has members
}

// newWaiterSet returns an empty set over processors [0, p) in blocks of
// span.
func newWaiterSet(p, span int) *waiterSet {
	nb := (p + span - 1) / span
	ws := &waiterSet{
		words:  make([]uint64, (p+63)/64),
		span:   span,
		block:  make([]int32, p),
		count:  make([]int, nb),
		blocks: make([]uint64, (nb+63)/64),
	}
	for pid := range ws.block {
		ws.block[pid] = int32(pid / span)
	}
	return ws
}

// add inserts pid; inserting a member is a no-op.
//
//lint:hotpath
func (ws *waiterSet) add(pid int) {
	w, b := pid>>6, uint(pid&63)
	if ws.words[w]&(1<<b) == 0 {
		ws.words[w] |= 1 << b
		ws.n++
		blk := ws.block[pid]
		if ws.count[blk] == 0 {
			ws.blocks[blk>>6] |= 1 << uint(blk&63)
		}
		ws.count[blk]++
	}
}

// remove deletes pid; deleting a non-member is a no-op.
//
//lint:hotpath
func (ws *waiterSet) remove(pid int) {
	w, b := pid>>6, uint(pid&63)
	if ws.words[w]&(1<<b) != 0 {
		ws.words[w] &^= 1 << b
		ws.n--
		blk := ws.block[pid]
		ws.count[blk]--
		if ws.count[blk] == 0 {
			ws.blocks[blk>>6] &^= 1 << uint(blk&63)
		}
	}
}

// contains reports membership of pid.
//
//lint:hotpath
func (ws *waiterSet) contains(pid int) bool {
	return ws.words[pid>>6]&(1<<uint(pid&63)) != 0
}

// empty reports whether the set has no members.
func (ws *waiterSet) empty() bool { return ws.n == 0 }

// next returns the smallest member ≥ from, or -1 when none remains.
// Iterating with `for pid := ws.next(0); pid != -1; pid = ws.next(pid+1)`
// visits the members in ascending order; removing the currently visited
// member during iteration is safe (the scan never revisits positions
// below the cursor), which is the only mutation a wake pass performs —
// a grant removes the granted waiter and can never add one, since
// grants only consume network capacity.
//
//lint:hotpath
func (ws *waiterSet) next(from int) int {
	if from < 0 {
		from = 0
	}
	w := from >> 6
	if w >= len(ws.words) {
		return -1
	}
	// Mask off bits below from within its word, then scan forward.
	word := ws.words[w] >> uint(from&63) << uint(from&63)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w++
		if w >= len(ws.words) {
			return -1
		}
		word = ws.words[w]
	}
}

// blockedInvariant recounts the blocked predicate from the ground-truth
// processor state and pins the incremental waiter set to it: pid is a
// member iff it is idle with a nonempty queue, and every block's member
// count and bit match a recount. Run after every event under the
// invariant build (invariant.Enabled), it is the brute-force oracle the
// bitset bookkeeping must match.
func blockedInvariant(pt *procTable, ws *waiterSet) error {
	count := 0
	for pid := range pt.transmitting {
		blocked := pt.blocked(pid)
		if blocked {
			count++
		}
		if blocked != ws.contains(pid) {
			return invariant.Errorf("sim",
				"wake-list drift: processor %d blocked=%v but set membership=%v",
				pid, blocked, ws.contains(pid))
		}
	}
	if count != ws.n {
		return invariant.Errorf("sim",
			"wake-list count drift: %d processors blocked, set size %d", count, ws.n)
	}
	for blk, c := range ws.count {
		n := 0
		for pid := blk * ws.span; pid < min((blk+1)*ws.span, len(pt.transmitting)); pid++ {
			if ws.contains(pid) {
				n++
			}
		}
		if n != c || (c > 0) != (ws.blocks[blk>>6]&(1<<uint(blk&63)) != 0) {
			return invariant.Errorf("sim",
				"wake-list block drift: block %d has %d waiters, count %d, bitset %v",
				blk, n, c, ws.blocks[blk>>6]&(1<<uint(blk&63)) != 0)
		}
	}
	return nil
}

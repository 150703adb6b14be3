// Package hotalloc exercises the hotalloc analyzer: every class of the
// may-allocate taxonomy is flagged inside //lint:hotpath scopes,
// transitive reaches are reported with their full call chain, and the
// escape hatches (statement-level regions, //lint:coldpath excision,
// hot-callee deduplication) behave as documented.
package hotalloc

import (
	"strconv"

	"rsin/internal/invariant"
)

type point struct{ x, y int }

var (
	sinkPtr   *point
	sinkPoint *point
	sinkInts  []int
	sinkStr   string
	grow      []int
	hotSlice  []int
)

// directAllocs hits every direct operation of the taxonomy; each line
// must produce exactly one finding.
//
//lint:hotpath every operation below must be flagged
func directAllocs(s, k string, count int) {
	buf := make([]int, 8) // want "hot path hotalloc.directAllocs: make"
	buf = append(buf, 1)  // want "growing append \(may reallocate the backing array\)"
	sinkInts = buf
	sinkPtr = new(point)             // want "hot path hotalloc.directAllocs: new"
	counts := map[string]int{"a": 1} // want "map literal"
	counts[k] = 1                    // want "map write \(may grow the map\)"
	counts[k]++                      // want "map write \(may grow the map\)"
	xs := []int{1, 2, 3}             // want "slice literal \(backing array reaches the heap\)"
	sinkInts = xs
	sinkPoint = &point{1, 2} // want "escaping composite literal"
	captured := 0
	f := func() { captured++ } // want "closure captures variables"
	_ = f
	bs := []byte(s)      // want "string→\[\]byte/\[\]rune conversion"
	sinkStr = string(bs) // want "\[\]byte/\[\]rune→string conversion"
	msg := s + "!"       // want "string concatenation"
	sinkStr = msg
	total := variadicInts(1, 2, 3) // want "variadic call allocates its argument slice"
	_ = total
	box(count)     // want "interface boxing of non-pointer value .* at argument"
	go worker()    // want "go statement \(new goroutine\)"
	defer worker() // want "defer statement \(may heap-allocate its frame\)"
}

// returnsBoxed exercises boxing detection at return statements.
//
//lint:hotpath
func returnsBoxed(v int) any {
	return v // want "interface boxing of non-pointer value .* at return"
}

// transitive reaches an allocation two calls deep; the finding must
// carry the whole witness chain.
//
//lint:hotpath
func transitive() {
	helper() // want "call may allocate: hotalloc.helper → hotalloc.growAll → growing append"
}

func helper() { growAll() }

func growAll() { grow = append(grow, 1) }

// allocator/slabAlloc exercise class-hierarchy analysis: the interface
// call resolves to the lone implementation in the universe, whose make
// grounds the finding.
type allocator interface{ alloc() []byte }

type slabAlloc struct{}

func (slabAlloc) alloc() []byte {
	return make([]byte, 64)
}

//lint:hotpath
func viaInterface(a allocator) []byte {
	return a.alloc() // want "call may allocate: hotalloc.slabAlloc.alloc → make"
}

// external calls outside the universe are assumed allocating unless
// allowlisted (math, math/bits, unicode/utf8).
//
//lint:hotpath
func external(i int) string {
	return strconv.Itoa(i) // want "calls strconv.Itoa \(external, assumed allocating\)"
}

// dynamic calls through arbitrary function values cannot be closed over.
//
//lint:hotpath
func dynamic(fn func()) {
	fn() // want "indirect call cannot be proven allocation-free"
}

// regionOnly marks a single statement hot: the make above the mark must
// NOT be flagged, the append under it must.
func regionOnly(n int) int {
	scratch := make([]int, n) // unmarked: outside the hot region below
	total := 0
	for _, v := range scratch {
		total += v
	}
	//lint:hotpath
	hotSlice = append(hotSlice, n) // want "hot path hotalloc.regionOnly: growing append"
	return total
}

var probe func(int)

// coldExcised proves //lint:coldpath excises a statement from an
// enclosing hot scope: the dynamic probe call produces no finding.
//
//lint:hotpath
func coldExcised(v int) int {
	//lint:coldpath probe emission is off the steady-state path
	if probe != nil {
		probe(v)
	}
	return v * 2
}

// invariantArgs proves calls into the invariant package are cold
// callees whose arguments are still hot code: Go builds a variadic
// ...any (its slice, and a box per non-pointer value) at the call site
// even when checks are off. Only the `if invariant.Enabled()` guard
// excises the call with its arguments.
//
//lint:hotpath
func invariantArgs(port int, ok bool, name string, a, b float64) {
	invariant.Assert(ok, "hotalloc", "port %d", // want "variadic call allocates its argument slice"
		port) // want "interface boxing of non-pointer value \(int → any\) at argument"
	_ = invariant.Probability("hotalloc",
		name+"!", a) // want "string concatenation"
	// A cold callee is never reported, though NonDecreasing allocates
	// its error; neither is an Assert with nothing to box.
	_ = invariant.NonDecreasing("hotalloc", a, b)
	invariant.Assert(ok, "hotalloc", "plain message")
	if invariant.Enabled() {
		invariant.Assert(ok, "hotalloc", "port %d", port)
		_ = invariant.Probability("hotalloc", name+"!", a)
	}
}

// hotLeaf/hotCaller prove hot callees are checked at their own
// definition, not re-reported at every hot call site.

//lint:hotpath
func hotLeaf(x int) int { return x * 2 }

//lint:hotpath
func hotCaller(x int) int { return hotLeaf(x) + 1 }

//lint:hotpath this directive attaches to nothing // want "//lint:hotpath directive matches no function or statement"
var unattached = 0

// Clean helpers the hot functions above call.

func worker() {}

func box(v any) any { return v }

func variadicInts(xs ...int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

package lint

import (
	"go/ast"
	"go/token"
	"sort"

	"rsin/internal/lint/callgraph"
	"rsin/internal/lint/summary"
)

// HotAlloc proves //lint:hotpath-marked functions and regions
// allocation-free: no operation of the may-allocate taxonomy (escaping
// composite literals, growing append, map writes, make/new, closure
// captures, interface boxing of non-pointer values, string↔[]byte
// conversions, variadic slices, go/defer) may be reachable from a hot
// mark, directly or transitively through the call graph. Findings for
// transitive reaches carry the full hot-path→allocation call chain.
//
// Escape hatches, in order of preference: panic branches and
// `if invariant.Enabled() { … }` guards are structurally cold, and calls
// into the invariant package are cold callees — but their argument
// expressions are still checked, since boxing into Assert's ...any
// happens at the call site even with checks off; //lint:coldpath on
// a statement excises a rare-path region (probe emission, saturation
// abort); //lint:ignore hotalloc <reason> suppresses a single finding —
// reserved for amortized-growth sites whose reason must cite the
// runtime allocation test that pins the amortization.
//
// hotalloc complements the runtime AllocsPerRun/Mallocs-delta tests, it
// does not replace them: the static pass proves reachability absence
// over every configuration, the runtime tests pin the amortized-growth
// sites the static pass must take on faith.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "hotalloc proves //lint:hotpath functions/regions allocation-free, " +
		"reporting any reachable allocating operation with its call chain",
	Run: runHotAlloc,
}

func runHotAlloc(p *Pass) error {
	u := p.Uni
	if u == nil {
		return nil // no interprocedural view (direct Run call in a unit test)
	}
	marks := u.marks[p.Path]
	if marks != nil {
		for _, um := range marks.unmatched {
			p.Reportf(um.pos, "//lint:%s directive matches no function or statement", um.kind)
		}
	}

	skip := summary.HotSkipper(p.Info, coldPkgs)
	// Fold //lint:coldpath statement spans into the skip predicate; the
	// marks are honored here, at reporting level, but deliberately not
	// in summaries (a function's may-allocate fact must not depend on
	// who asks).
	if marks != nil && len(marks.coldSpans) > 0 {
		spans := marks.coldSpans
		base := skip
		skip = func(nd ast.Node) bool {
			if base(nd) {
				return true
			}
			for _, s := range spans {
				if s.contains(nd.Pos()) {
					return true
				}
			}
			return false
		}
	}

	for _, n := range u.Graph.Nodes {
		if !n.Hot || n.Pkg == nil || n.Pkg.Path != p.Path {
			continue
		}
		checkHotRegion(p, n, n.Body(), skip)
	}
	if marks != nil {
		for _, r := range marks.regions {
			checkHotRegion(p, r.Node, r.Root, skip)
		}
	}
	return nil
}

// checkHotRegion reports every may-allocate operation in root (a hot
// function body or marked statement inside node) and every call edge
// out of it that reaches an allocation.
func checkHotRegion(p *Pass, node *callgraph.Node, root ast.Node, skip func(ast.Node) bool) {
	if node == nil || root == nil {
		return
	}
	u := p.Uni
	info := node.Pkg.Info
	for _, op := range summary.AllocOpsIn(info, root, node.Signature(info), skip) {
		p.Reportf(op.Pos, "hot path %s: %s", node.Name, op.What)
	}
	visible := summary.VisibleCalls(root, skip)
	edges := make([]callgraph.Edge, 0, len(node.Edges))
	for _, e := range node.Edges {
		if visible[e.Call] {
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edgePos(edges[i]) < edgePos(edges[j]) })
	for _, e := range edges {
		switch e.Kind {
		case callgraph.EdgeExternal:
			pkg := e.Ext.Pkg()
			if pkg == nil || summary.AllowlistedExternal(pkg.Path()) || coldPkgs[pkg.Path()] {
				continue
			}
			p.Reportf(e.Call.Pos(), "hot path %s: calls %s.%s (external, assumed allocating)",
				node.Name, pkg.Name(), e.Ext.Name())
		case callgraph.EdgeDynamic:
			p.Reportf(e.Call.Pos(), "hot path %s: indirect call cannot be proven allocation-free",
				node.Name)
		default:
			if e.Callee == nil || e.Callee.Hot {
				// Hot callees are proven at their own definition; a
				// second report here would double-count every finding.
				continue
			}
			if e.Callee.Pkg != nil && coldPkgs[e.Callee.Pkg.Path] {
				continue // cold callee; its arguments were scanned above
			}
			f := u.Sums.Facts(e.Callee)
			if f.Allocates {
				p.Reportf(e.Call.Pos(), "hot path %s: call may allocate: %s",
					node.Name, u.Sums.DescribeChain(e.Callee, f.AllocPath))
			}
		}
	}
}

func edgePos(e callgraph.Edge) token.Pos {
	if e.Call != nil {
		return e.Call.Pos()
	}
	return token.NoPos
}

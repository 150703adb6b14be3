package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"rsin/internal/lint/callgraph"
)

// AllocOp is one potentially allocating operation found by the
// conservative syntactic taxonomy: growing append, make, new, map
// writes, map/slice literals, escaping composite literals, closure
// captures, interface boxing of non-pointer values, string↔[]byte
// conversions, string concatenation, variadic argument slices, go and
// defer statements, and unresolvable indirect calls.
//
// The taxonomy is deliberately may-allocate: appends into preallocated
// capacity and pool-growth branches are flagged too. The reviewed
// //lint:ignore hotalloc suppressions at such sites document the
// amortization argument and point at the runtime test that pins it.
type AllocOp struct {
	Pos  token.Pos
	What string
}

// walkHot traverses root, pruning subtrees for which skip returns true
// and never descending into nested function literals (they are separate
// call-graph nodes, reached through edges).
func walkHot(root ast.Node, skip func(ast.Node) bool, visit func(ast.Node)) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(nd ast.Node) bool {
		if nd == nil {
			return false
		}
		if skip != nil && skip(nd) {
			return false
		}
		visit(nd)
		if lit, ok := nd.(*ast.FuncLit); ok && lit != root {
			return false
		}
		return true
	})
}

// VisibleCalls returns the call expressions lexically inside root that
// are not pruned by skip and not inside nested literals, in source
// order.
func VisibleCalls(root ast.Node, skip func(ast.Node) bool) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	walkHot(root, skip, func(nd ast.Node) {
		if call, ok := nd.(*ast.CallExpr); ok {
			out[call] = true
		}
	})
	return out
}

// ColdSkipper returns the structural cold-subtree predicate shared by
// summary computation and the puredet analyzer:
//
//   - calls into a cold package (the invariant runtime, whose checks
//     are off in production builds), including their argument boxing;
//   - if-statements whose condition calls into a cold package (the
//     `if invariant.Enabled() { … }` guard idiom);
//   - panic(...) subtrees — a panicking branch is off the steady-state
//     path by definition, and the simulator's bounds-guard panics all
//     format their message lazily inside one.
func ColdSkipper(info *types.Info, coldPkgs map[string]bool) func(ast.Node) bool {
	return coldSkipper(info, coldPkgs, true)
}

// HotSkipper is ColdSkipper for the hot regions the hotalloc analyzer
// reports on. A call into a cold package stays a cold callee, but its
// argument expressions are scanned like any other hot code: Go builds
// the arguments — boxing values into a variadic ...any and allocating
// its slice — at the call site, before the callee can return early, so
// they cost the same with checks off. Only the `if invariant.Enabled()`
// guard and panic subtrees excise a whole subtree.
func HotSkipper(info *types.Info, coldPkgs map[string]bool) func(ast.Node) bool {
	return coldSkipper(info, coldPkgs, false)
}

func coldSkipper(info *types.Info, coldPkgs map[string]bool, pruneColdCalls bool) func(ast.Node) bool {
	isPanic := func(call *ast.CallExpr) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && b.Name() == "panic"
	}
	callsColdPkg := func(call *ast.CallExpr) bool {
		var id *ast.Ident
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			id = fun
		case *ast.SelectorExpr:
			id = fun.Sel
		default:
			return false
		}
		fn, ok := info.Uses[id].(*types.Func)
		return ok && fn.Pkg() != nil && coldPkgs[fn.Pkg().Path()]
	}
	return func(nd ast.Node) bool {
		switch n := nd.(type) {
		case *ast.CallExpr:
			return isPanic(n) || (pruneColdCalls && callsColdPkg(n))
		case *ast.IfStmt:
			cold := false
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok && (isPanic(call) || callsColdPkg(call)) {
					cold = true
					return false
				}
				return true
			})
			return cold
		}
		return false
	}
}

// AllocOps scans node n's body with the cold predicate and returns its
// direct may-allocate operations in source order.
func AllocOps(info *types.Info, n *callgraph.Node, skip func(ast.Node) bool) []AllocOp {
	return AllocOpsIn(info, n.Body(), n.Signature(info), skip)
}

// AllocOpsIn scans an arbitrary region (a function body or a
// //lint:hotpath-marked statement) for direct may-allocate operations.
// sig is the signature of the enclosing function, used to judge
// interface boxing at return statements; it may be nil.
func AllocOpsIn(info *types.Info, root ast.Node, sig *types.Signature, skip func(ast.Node) bool) []AllocOp {
	var ops []AllocOp
	add := func(pos token.Pos, what string) {
		ops = append(ops, AllocOp{Pos: pos, What: what})
	}
	walkHot(root, skip, func(nd ast.Node) {
		switch n := nd.(type) {
		case *ast.CallExpr:
			scanCall(info, n, add)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					add(n.Pos(), "escaping composite literal (&T{…} reaches the heap)")
				}
			}
		case *ast.CompositeLit:
			scanCompositeLit(info, n, add)
		case *ast.AssignStmt:
			scanAssign(info, n, add)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMap(info.TypeOf(ix.X)) {
				add(n.Pos(), "map write (may grow the map)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n)) {
				add(n.Pos(), "string concatenation")
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results() != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					if what, ok := boxes(info, sig.Results().At(i).Type(), res); ok {
						add(res.Pos(), what+" at return")
					}
				}
			}
		case *ast.FuncLit:
			if root != nd && capturesVariables(info, n) {
				add(n.Pos(), "closure captures variables (closure and captures reach the heap)")
			}
		case *ast.GoStmt:
			add(n.Pos(), "go statement (new goroutine)")
		case *ast.DeferStmt:
			add(n.Pos(), "defer statement (may heap-allocate its frame)")
		}
	})
	return ops
}

// scanCall classifies a call expression: conversions (string↔[]byte,
// value→interface), allocating builtins, and the boxing/variadic costs
// of ordinary calls. Callee bodies are the summary layer's business.
func scanCall(info *types.Info, call *ast.CallExpr, add func(token.Pos, string)) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		// Conversion.
		dst := tv.Type
		if len(call.Args) != 1 {
			return
		}
		src := info.TypeOf(call.Args[0])
		switch {
		case isString(dst) && isByteOrRuneSlice(src):
			add(call.Pos(), "[]byte/[]rune→string conversion")
		case isByteOrRuneSlice(dst) && isString(src):
			add(call.Pos(), "string→[]byte/[]rune conversion")
		default:
			if what, ok := boxes(info, dst, call.Args[0]); ok {
				add(call.Pos(), what)
			}
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "growing append (may reallocate the backing array)")
			}
			return
		}
	}
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	np := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) passes the slice through
			}
			pt = params.At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = params.At(i).Type()
		default:
			continue
		}
		if what, ok := boxes(info, pt, arg); ok {
			add(arg.Pos(), what+" at argument")
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= np {
		add(call.Pos(), "variadic call allocates its argument slice")
	}
}

func scanCompositeLit(info *types.Info, lit *ast.CompositeLit, add func(token.Pos, string)) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		add(lit.Pos(), "map literal")
	case *types.Slice:
		add(lit.Pos(), "slice literal (backing array reaches the heap)")
	case *types.Struct:
		// The value itself is stack material; only element boxing costs.
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Name() == key.Name {
					if what, ok := boxes(info, u.Field(i).Type(), kv.Value); ok {
						add(kv.Value.Pos(), what+" at field "+key.Name)
					}
					break
				}
			}
		}
	}
}

func scanAssign(info *types.Info, n *ast.AssignStmt, add func(token.Pos, string)) {
	if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
		add(n.Pos(), "string concatenation")
	}
	if len(n.Lhs) != len(n.Rhs) {
		// Multi-value RHS: map-write LHS still counts.
		for _, lhs := range n.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(info.TypeOf(ix.X)) {
				add(lhs.Pos(), "map write (may grow the map)")
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(info.TypeOf(ix.X)) {
			add(lhs.Pos(), "map write (may grow the map)")
		}
		if n.Tok == token.ASSIGN {
			if what, ok := boxes(info, info.TypeOf(lhs), n.Rhs[i]); ok {
				add(n.Rhs[i].Pos(), what+" at assignment")
			}
		}
	}
}

// boxes reports whether assigning src to a destination of type dst
// boxes a non-pointer value into an interface — the allocation behind
// `var i any = x` for non-pointer-shaped x. Pointer-shaped values
// (pointers, channels, maps, funcs, unsafe.Pointer) fit the interface
// word directly and do not allocate.
func boxes(info *types.Info, dst types.Type, src ast.Expr) (string, bool) {
	if dst == nil || !types.IsInterface(dst) {
		return "", false
	}
	tv, ok := info.Types[src]
	if !ok || tv.IsNil() || tv.Type == nil {
		return "", false
	}
	st := tv.Type
	if types.IsInterface(st) || pointerShaped(st) {
		return "", false
	}
	return fmt.Sprintf("interface boxing of non-pointer value (%s → %s)",
		types.TypeString(st, types.RelativeTo(nil)), types.TypeString(dst, types.RelativeTo(nil))), true
}

func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// capturesVariables reports whether lit references variables declared
// outside its own body (free variables force the closure — and the
// captures — onto the heap).
func capturesVariables(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Pkg() != nil && v.Pkg().Scope().Lookup(v.Name()) == v {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rsin/internal/lint/callgraph"
)

// unreachedList is the committed allowlist of declared non-test
// functions that no production entry point reaches, relative to the
// module root. Each line is "<full name> <reason>"; blank lines and
// lines starting with '#' are ignored.
const unreachedList = "lint/unreached.txt"

// TestProductionReachability keeps production code to what an entry
// point reaches. The roots are the main function of every command and
// example (package main under cmd/ or examples/) and every init. From
// them it closes over the call graph, and also counts as reached:
//
//   - every module function named in reached code without a resolved
//     call edge — a function or method value (analyzers registered as
//     Run fields, comparators, probe callbacks) or a generic
//     instantiation;
//   - every function named in a package-level variable initializer of
//     a package some root's binary links in;
//   - every String and Error method, which fmt and errors call through
//     interfaces defined outside the module.
//
// Every other declared non-test function must be listed in
// lint/unreached.txt with its reason (a DESIGN.md claim row, an
// ablation setting, test introspection, the benchmark module's use).
// The test fails on an unreached function missing from the list and on
// a listed function that is now reached or no longer exists, so the
// list can only shrink.
func TestProductionReachability(t *testing.T) {
	root, mod, err := FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, mod, nil)
	paths, err := l.Packages([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if _, err := l.Load(path); err != nil {
			t.Fatal(err)
		}
	}
	uni := NewUniverse(l)
	unreached := productionUnreached(uni)

	listed, err := readUnreachedList(filepath.Join(root, filepath.FromSlash(unreachedList)))
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, n := range uni.Graph.Nodes {
		if n.Decl != nil {
			declared[n.FullName()] = true
		}
	}
	for _, name := range unreached {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s is reached from no entry point: delete it, move it into a _test.go file, or list it in %s with its reason", name, unreachedList)
		}
	}
	isUnreached := map[string]bool{}
	for _, name := range unreached {
		isUnreached[name] = true
	}
	for _, name := range sortedKeys(listed) {
		switch {
		case !declared[name]:
			t.Errorf("%s is listed in %s but no longer exists: remove its line", name, unreachedList)
		case !isUnreached[name]:
			t.Errorf("%s is listed in %s but is now reached: remove its line", name, unreachedList)
		}
	}
}

// productionUnreached returns the full names, sorted, of the declared
// functions of uni that the production roots do not reach.
func productionUnreached(uni *Universe) []string {
	g := uni.Graph
	byPath := map[string]*Package{}
	for _, p := range uni.Pkgs {
		byPath[p.Path] = p
	}

	var roots []*callgraph.Node
	var mains []*Package
	for _, p := range uni.Pkgs {
		rel := strings.TrimPrefix(p.Path, uni.ModulePath+"/")
		isMain := p.Pkg.Name() == "main" &&
			(strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/"))
		if isMain {
			mains = append(mains, p)
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || g.ByDecl[fd] == nil {
					continue
				}
				name := fd.Name.Name
				switch {
				case fd.Recv == nil && name == "init",
					fd.Recv == nil && name == "main" && isMain,
					fd.Recv != nil && (name == "String" || name == "Error"):
					roots = append(roots, g.ByDecl[fd])
				}
			}
		}
	}

	// Package-level initializers of every linked package run at start-up.
	linked := map[string]bool{}
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp.Path()] || byPath[tp.Path()] == nil {
			return
		}
		linked[tp.Path()] = true
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	for _, p := range mains {
		link(p.Pkg)
	}
	for _, path := range sortedKeys(linked) {
		p := byPath[path]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					roots = append(roots, namedFuncs(g, p.Info, gd)...)
				}
			}
		}
	}

	// Close over call edges, then over the functions the new members
	// name, until nothing new is named.
	c := g.Reach(roots)
	scanned := map[*callgraph.Node]bool{}
	for {
		before := len(roots)
		for _, n := range c.Nodes {
			if scanned[n] {
				continue
			}
			scanned[n] = true
			if body := n.Body(); body != nil {
				for _, m := range namedFuncs(g, n.Pkg.Info, body) {
					if !c.Contains(m) {
						roots = append(roots, m)
					}
				}
			}
		}
		if len(roots) == before {
			break
		}
		c = g.Reach(roots)
	}

	var out []string
	for _, n := range g.Nodes {
		if n.Decl != nil && !c.Contains(n) {
			out = append(out, n.FullName())
		}
	}
	sort.Strings(out)
	return out
}

// namedFuncs returns the module functions that identifiers under node
// refer to, generic instantiations resolved to their origin.
func namedFuncs(g *callgraph.Graph, info *types.Info, node ast.Node) []*callgraph.Node {
	var out []*callgraph.Node
	ast.Inspect(node, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			if n := g.ByFunc[fn.Origin()]; n != nil {
				out = append(out, n)
			}
		}
		return true
	})
	return out
}

// readUnreachedList parses the allowlist into full name → reason.
func readUnreachedList(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, line, name)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, line, name)
		}
		out[name] = reason
	}
	return out, sc.Err()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

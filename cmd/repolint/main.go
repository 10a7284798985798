// Command repolint runs the repository's custom static checks — the
// determinism rules `go vet` cannot express. It is stdlib-only (the
// container has no module cache) and runs in CI next to vet; a non-zero
// exit fails the build.
//
// Rules:
//
//	R1 wallclock: no time.Now/time.Since calls and no math/rand imports
//	   outside the explicit allowlist. Simulation outcomes must be pure
//	   functions of virtual time; an ambient clock or rng read anywhere
//	   in a simulation package is a determinism hole. Allowed: _test.go
//	   files, place/workload.go (the seeded workload generator),
//	   internal/ir/gen.go (the property-test program generator — it only
//	   draws from a caller-provided *rand.Rand), internal/bench/
//	   (wall-clock measurement is its job), cmd/ and examples/ (CLI
//	   frontends and demos).
//
//	R2 maprange: no ranging over a value syntactically known (in the
//	   same package) to be a map, outside _test.go files. Go randomizes
//	   map iteration order, so a map range feeding canonical output —
//	   trace streams, metrics snapshots, eviction sequences — flakes
//	   run-to-run. Exempt: functions that also call sort.*/slices.Sort*
//	   (the collect-keys-then-sort idiom), and ranges annotated with a
//	   `//repolint:allow maprange` comment on the same or previous line
//	   (for proven order-insensitive bodies).
//
//	R3 traceguard: every `X.Trace.Instant(...)` / `X.Trace.Span(...)`
//	   emission must be dominated by an `X.Trace != nil` check. Trace
//	   attachment is optional (core.Cluster.AttachTrace), so an
//	   unguarded emission is a nil-pointer panic on every untraced run.
//
//	R4 peermem: in non-test files of internal/core, every `X.Node.Mem()`
//	   call must have X be the enclosing method's receiver. A runtime
//	   reads only its own node's memory; a peer's bytes arrive over the
//	   fabric (ucx GET/PUT), which charges them in virtual time. A direct
//	   read of another node's heap is a free, unpriced transfer.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// finding is one rule violation.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := lintTree(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Printf("%s: [%s] %s\n", f.pos, f.rule, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintTree walks root for .go files (grouped per directory, so package-
// level map declarations inform every file of the package) and applies
// the rules. Findings come back sorted by position for stable output.
func lintTree(root string) ([]finding, error) {
	dirs := map[string][]string{}
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			switch info.Name() {
			case ".git", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirNames := make([]string, 0, len(dirs))
	for d := range dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)

	var out []finding
	for _, dir := range dirNames {
		files := dirs[dir]
		sort.Strings(files)
		fs, err := lintDir(root, files)
		if err != nil {
			return nil, err
		}
		out = append(out, fs...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out, nil
}

// wallclockAllowed reports whether rel (slash-separated, repo-relative)
// may read the host clock or import math/rand.
func wallclockAllowed(rel string) bool {
	if strings.HasSuffix(rel, "_test.go") {
		return true
	}
	switch rel {
	case "internal/place/workload.go", "internal/ir/gen.go":
		return true
	}
	for _, p := range []string{"internal/bench/", "cmd/", "examples/"} {
		if strings.HasPrefix(rel, p) {
			return true
		}
	}
	return false
}

func lintDir(root string, files []string) ([]finding, error) {
	fset := token.NewFileSet()
	parsed := make([]*ast.File, len(files))
	for i, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		parsed[i] = f
	}

	// Package-wide syntactic map census for R2: names of variables and
	// struct fields declared (or made) with a map type anywhere in the
	// package's non-test files. Names also declared with a slice/array
	// type somewhere in the package (e.g. ir.Module.Globals []Global vs
	// interp.Env.Globals map[string]uint64) are ambiguous without type
	// information, so they are excluded rather than flagged.
	mapNames := map[string]bool{}
	sliceNames := map[string]bool{}
	for i, f := range parsed {
		if strings.HasSuffix(files[i], "_test.go") {
			continue
		}
		collectMapNames(f, mapNames, sliceNames)
	}
	for n := range sliceNames { //repolint:allow maprange — set subtraction, order-insensitive
		delete(mapNames, n)
	}

	var out []finding
	for i, f := range parsed {
		rel, err := filepath.Rel(root, files[i])
		if err != nil {
			rel = files[i]
		}
		rel = filepath.ToSlash(rel)
		lf := &fileLinter{fset: fset, file: f, rel: rel, mapNames: mapNames}
		out = append(out, lf.lint()...)
	}
	return out, nil
}

// collectMapNames records identifiers bound to map types: struct fields,
// var declarations, and := assignments from make(map...) or map
// literals. Purely syntactic — go/types needs a module cache this
// container does not have — so it can both over- and under-approximate;
// the annotation escape hatch covers the rest.
func collectMapNames(f *ast.File, names, sliceNames map[string]bool) {
	isMapType := func(e ast.Expr) bool {
		_, ok := e.(*ast.MapType)
		return ok
	}
	isSliceType := func(e ast.Expr) bool {
		_, ok := e.(*ast.ArrayType)
		return ok
	}
	isMapExpr := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
				return isMapType(v.Args[0])
			}
		case *ast.CompositeLit:
			return v.Type != nil && isMapType(v.Type)
		}
		return false
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Field:
			if v.Type == nil {
				break
			}
			for _, id := range v.Names {
				if isMapType(v.Type) {
					names[id.Name] = true
				}
				if isSliceType(v.Type) {
					sliceNames[id.Name] = true
				}
			}
		case *ast.ValueSpec:
			mapTy := v.Type != nil && isMapType(v.Type)
			sliceTy := v.Type != nil && isSliceType(v.Type)
			for i, id := range v.Names {
				if mapTy || (i < len(v.Values) && isMapExpr(v.Values[i])) {
					names[id.Name] = true
				}
				if sliceTy {
					sliceNames[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) || !isMapExpr(v.Rhs[i]) {
					continue
				}
				switch l := lhs.(type) {
				case *ast.Ident:
					names[l.Name] = true
				case *ast.SelectorExpr:
					names[l.Sel.Name] = true
				}
			}
		}
		return true
	})
}

type fileLinter struct {
	fset     *token.FileSet
	file     *ast.File
	rel      string
	mapNames map[string]bool
	findings []finding
	// allowLines holds line numbers carrying a repolint:allow comment;
	// a finding on that line or the next is suppressed for that rule.
	allowLines map[string]map[int]bool
}

func (l *fileLinter) add(pos token.Pos, rule, format string, args ...interface{}) {
	p := l.fset.Position(pos)
	if lines := l.allowLines[rule]; lines[p.Line] || lines[p.Line-1] {
		return
	}
	l.findings = append(l.findings, finding{pos: p, rule: rule, msg: fmt.Sprintf(format, args...)})
}

func (l *fileLinter) lint() []finding {
	l.allowLines = map[string]map[int]bool{}
	for _, cg := range l.file.Comments {
		for _, c := range cg.List {
			txt := strings.TrimPrefix(c.Text, "//")
			txt = strings.TrimSpace(txt)
			if !strings.HasPrefix(txt, "repolint:allow ") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(txt, "repolint:allow "))
			if len(fields) == 0 {
				continue
			}
			rule := fields[0]
			m := l.allowLines[rule]
			if m == nil {
				m = map[int]bool{}
				l.allowLines[rule] = m
			}
			m[l.fset.Position(c.Pos()).Line] = true
		}
	}

	l.lintWallclock()
	if !strings.HasSuffix(l.rel, "_test.go") {
		l.lintMapRange()
	}
	l.lintTraceGuard()
	if strings.HasPrefix(l.rel, "internal/core/") && !strings.HasSuffix(l.rel, "_test.go") {
		l.lintPeerMem()
	}
	return l.findings
}

// lintWallclock is R1.
func (l *fileLinter) lintWallclock() {
	if wallclockAllowed(l.rel) {
		return
	}
	timeName := ""
	for _, imp := range l.file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		switch path {
		case "math/rand", "math/rand/v2":
			l.add(imp.Pos(), "wallclock",
				"import of %s outside the allowlist: simulation randomness must come from seeded generators in allowed packages", path)
		case "time":
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" || timeName == "_" {
		return
	}
	ast.Inspect(l.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != timeName {
			return true
		}
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			l.add(call.Pos(), "wallclock",
				"%s.%s outside the allowlist: simulated outcomes must be pure functions of virtual time", timeName, sel.Sel.Name)
		}
		return true
	})
}

// lintMapRange is R2.
func (l *fileLinter) lintMapRange() {
	for _, decl := range l.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// The collect-keys-then-sort idiom: a function that sorts is
		// taken to be producing canonical order itself.
		sorts := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if (id.Name == "sort") || (id.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
						sorts = true
					}
				}
			}
			return !sorts
		})
		if sorts {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			name := ""
			switch x := rng.X.(type) {
			case *ast.Ident:
				name = x.Name
			case *ast.SelectorExpr:
				name = x.Sel.Name
			}
			if name != "" && l.mapNames[name] {
				l.add(rng.Pos(), "maprange",
					"range over map %q: iteration order is randomized — sort keys first or annotate `//repolint:allow maprange` if provably order-insensitive", name)
			}
			return true
		})
	}
}

// lintPeerMem is R4: flag `X.Node.Mem()` unless X is the receiver of
// the enclosing method (closures inside a method see the same receiver).
func (l *fileLinter) lintPeerMem() {
	for _, decl := range l.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		recv := ""
		if fn.Recv != nil && len(fn.Recv.List) > 0 && len(fn.Recv.List[0].Names) > 0 {
			recv = fn.Recv.List[0].Names[0].Name
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			mem, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || mem.Sel.Name != "Mem" {
				return true
			}
			node, ok := mem.X.(*ast.SelectorExpr)
			if !ok || node.Sel.Name != "Node" {
				return true
			}
			if x := exprChain(node.X); recv == "" || x != recv {
				if x == "" {
					x = "<expr>"
				}
				l.add(call.Pos(), "peermem",
					"%s.Node.Mem() reads another node's memory: a peer's bytes must arrive over the fabric (ucx Get), which charges them in virtual time", x)
			}
			return true
		})
	}
}

// lintTraceGuard is R3: a recursive walk carrying the set of selector
// chains proven non-nil by dominating if-conditions.
func (l *fileLinter) lintTraceGuard() {
	for _, decl := range l.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		l.walkGuarded(fn.Body, map[string]bool{})
	}
}

// exprChain renders a selector chain of identifiers ("r.Trace",
// "rt.Node.Trace") or "" for anything more complex.
func exprChain(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		base := exprChain(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.CallExpr:
		// Method-call links like r.eng() make the chain dynamic: give up.
		return ""
	}
	return ""
}

// nonNilConds extracts the selector chains a condition proves non-nil
// when true: `X != nil` terms of a top-level && conjunction.
func nonNilConds(e ast.Expr, out map[string]bool) {
	switch v := e.(type) {
	case *ast.BinaryExpr:
		switch v.Op {
		case token.LAND:
			nonNilConds(v.X, out)
			nonNilConds(v.Y, out)
		case token.NEQ:
			if isNil(v.Y) {
				if c := exprChain(v.X); c != "" {
					out[c] = true
				}
			} else if isNil(v.X) {
				if c := exprChain(v.Y); c != "" {
					out[c] = true
				}
			}
		}
	case *ast.ParenExpr:
		nonNilConds(v.X, out)
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func (l *fileLinter) walkGuarded(n ast.Node, guards map[string]bool) {
	if n == nil {
		return
	}
	switch v := n.(type) {
	case *ast.IfStmt:
		if v.Init != nil {
			l.walkGuarded(v.Init, guards)
		}
		l.walkGuarded(v.Cond, guards)
		inner := map[string]bool{}
		for k := range guards { //repolint:allow maprange — set copy, order-insensitive
			inner[k] = true
		}
		nonNilConds(v.Cond, inner)
		l.walkGuarded(v.Body, inner)
		l.walkGuarded(v.Else, guards)
		return
	case *ast.CallExpr:
		if sel, ok := v.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Instant" || sel.Sel.Name == "Span") {
			if recv := exprChain(sel.X); recv != "" && strings.HasSuffix(recv, ".Trace") && !guards[recv] {
				l.add(v.Pos(), "traceguard",
					"%s.%s emission not dominated by a `%s != nil` check: traces are optional and this panics on untraced runs", recv, sel.Sel.Name, recv)
			}
		}
	case *ast.FuncLit:
		// A closure runs later, where the lexical guard may no longer
		// hold; analyze it with a fresh (empty) guard set.
		l.walkGuarded(v.Body, map[string]bool{})
		return
	}
	// Generic descent preserving the current guard set.
	children(n, func(c ast.Node) {
		l.walkGuarded(c, guards)
	})
}

// children invokes fn on each direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

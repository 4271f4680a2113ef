package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Atomicwrite machine-checks the surface store's crash-safety
// contract (DESIGN §14): artifact files — surface snapshots (.surf)
// and the store manifest — are only ever published by
// the tmp+rename idiom, so a crashed writer leaves either the old
// bytes or the new bytes, never a truncated mix the checksum layer
// then has to quarantine. A direct os.WriteFile or os.Create on a
// final artifact path is a finding.
//
// The analyzer tracks artifact-path taint within each package:
//
//   - sources: string literals ending in ".surf", literals naming a
//     manifest file, package constants initialized to one, and
//     in-package functions that return one;
//   - propagation: local assignment, string concatenation,
//     filepath.Join, and calls to tainted in-package functions;
//   - the escape hatch: a path that carries a ".tmp" suffix is a
//     scratch file, not a final artifact — but the function writing
//     it must also call os.Rename, or the artifact never appears.
//
// Functions that raw-write a string parameter are summarized, so a
// helper like `func save(path string) { os.WriteFile(path, ...) }`
// is flagged at the call site that hands it an artifact path. The
// sanctioned idiom (write `path + ".tmp"`, then os.Rename into
// place) passes untouched.
var Atomicwrite = &Analyzer{
	Name: "atomicwrite",
	Doc: "artifact files (.surf/manifest) must be written via " +
		"tmp+rename, never by a direct write to the final path",
	Severity: SeverityError,
	Run:      runAtomicwrite,
}

// pathTaint classifies one path expression.
type pathTaint struct {
	artifact bool // derives from an artifact name
	tmp      bool // carries a ".tmp" suffix somewhere
	params   map[int]bool
}

func (t pathTaint) merge(o pathTaint) pathTaint {
	out := pathTaint{artifact: t.artifact || o.artifact, tmp: t.tmp || o.tmp,
		params: map[int]bool{}}
	for i := range t.params {
		out.params[i] = true
	}
	for i := range o.params {
		out.params[i] = true
	}
	return out
}

// awState is the per-package analysis state.
type awState struct {
	pass *Pass
	// artifactConsts holds package-level consts/vars bound to artifact
	// names.
	artifactConsts map[types.Object]bool
	// artifactFuncs holds in-package functions that return artifact
	// names, by declaration.
	artifactFuncs map[string]bool
	// rawWriters maps a function name to the set of string-parameter
	// indices it writes raw (no tmp suffix, no rename protection).
	rawWriters map[string]map[int]bool
}

func runAtomicwrite(p *Pass) {
	if !isSimPath(p.Path) {
		return
	}
	st := &awState{
		pass:           p,
		artifactConsts: map[types.Object]bool{},
		artifactFuncs:  map[string]bool{},
		rawWriters:     map[string]map[int]bool{},
	}
	st.collectSources()
	// Summaries before call-site checks: a helper can be declared
	// after its caller.
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				st.summarize(fd)
			}
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				st.checkFunc(fd)
			}
		}
	}
}

// isArtifactLiteral reports whether the string constant names a final
// artifact: a surface snapshot (.surf) or a manifest file.
func isArtifactLiteral(s string) bool {
	base := s
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return strings.HasSuffix(base, ".surf") ||
		(strings.Contains(base, "manifest") && strings.Contains(base, "."))
}

// collectSources finds package-level artifact constants and
// artifact-returning functions.
func (st *awState) collectSources() {
	p := st.pass
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				if d.Tok != token.CONST && d.Tok != token.VAR {
					continue
				}
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							continue
						}
						if lit := stringLit(vs.Values[i]); lit != "" && isArtifactLiteral(lit) {
							if obj := p.Info.Defs[name]; obj != nil {
								st.artifactConsts[obj] = true
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				returns := false
				ast.Inspect(d.Body, func(n ast.Node) bool {
					ret, ok := n.(*ast.ReturnStmt)
					if !ok {
						return true
					}
					for _, r := range ret.Results {
						if lit := stringLit(r); lit != "" && isArtifactLiteral(lit) {
							returns = true
						}
					}
					return true
				})
				if returns {
					st.artifactFuncs[d.Name.Name] = true
				}
			}
		}
	}
}

// summarize records which string parameters fd writes raw: an
// os.WriteFile/os.Create whose path derives from the parameter with
// no ".tmp" suffix.
func (st *awState) summarize(fd *ast.FuncDecl) {
	params := paramObjs(st.pass, fd)
	locals := map[types.Object]pathTaint{}
	raw := map[int]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.trackAssign(n, params, locals)
		case *ast.CallExpr:
			if pathArg, ok := rawWriteCall(st.pass, n); ok {
				t := st.eval(pathArg, params, locals)
				if !t.tmp {
					for i := range t.params {
						raw[i] = true
					}
				}
			}
		}
		return true
	})
	if len(raw) > 0 {
		st.rawWriters[fd.Name.Name] = raw
	}
}

// checkFunc reports the violations inside one function.
func (st *awState) checkFunc(fd *ast.FuncDecl) {
	p := st.pass
	params := paramObjs(p, fd)
	locals := map[types.Object]pathTaint{}
	hasRename := false
	type tmpWrite struct {
		pos token.Pos
		t   pathTaint
	}
	var tmpWrites []tmpWrite
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.trackAssign(n, params, locals)
		case *ast.CallExpr:
			if isPkgCall(p, n, "os", "Rename") {
				hasRename = true
				return true
			}
			if pathArg, ok := rawWriteCall(p, n); ok {
				t := st.eval(pathArg, params, locals)
				switch {
				case t.artifact && !t.tmp:
					p.Reportf(n.Pos(),
						"artifact file written directly to its final path; use the "+
							"tmp+rename idiom (write path+\".tmp\", checksum, os.Rename) so "+
							"a crash never leaves a truncated artifact")
				case t.tmp && (t.artifact || len(t.params) > 0):
					tmpWrites = append(tmpWrites, tmpWrite{n.Pos(), t})
				}
				return true
			}
			// A call into an in-package raw writer with an artifact arg
			// is the same violation one hop away.
			if name, ok := calleeName(n); ok {
				if raw := st.rawWriters[name]; raw != nil {
					for i, arg := range n.Args {
						if raw[i] && st.eval(arg, params, locals).artifact {
							p.Reportf(arg.Pos(),
								"artifact path handed to %s, which writes its argument "+
									"without tmp+rename; route it through the atomic writer",
								name)
						}
					}
				}
			}
		}
		return true
	})
	for _, w := range tmpWrites {
		if !hasRename {
			p.Reportf(w.pos,
				"temp file is written but never renamed into place in this function; "+
					"the artifact would never be published")
		}
	}
}

// trackAssign propagates taint through `x := expr` / `x = expr`.
func (st *awState) trackAssign(n *ast.AssignStmt, params map[types.Object]int, locals map[types.Object]pathTaint) {
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := st.pass.Info.Defs[id]
		if obj == nil {
			obj = st.pass.Info.Uses[id]
		}
		if obj == nil {
			continue
		}
		t := st.eval(n.Rhs[i], params, locals)
		if t.artifact || t.tmp || len(t.params) > 0 {
			locals[obj] = t
		}
	}
}

// eval computes the taint of a path expression.
func (st *awState) eval(e ast.Expr, params map[types.Object]int, locals map[types.Object]pathTaint) pathTaint {
	p := st.pass
	t := pathTaint{params: map[int]bool{}}
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if s := stringLit(x); s != "" {
			t.artifact = isArtifactLiteral(s)
			t.tmp = strings.HasSuffix(s, ".tmp")
		}
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			return t
		}
		if st.artifactConsts[obj] {
			t.artifact = true
		}
		if lt, ok := locals[obj]; ok {
			t = t.merge(lt)
		}
		if i, ok := params[obj]; ok {
			t.params[i] = true
		}
	case *ast.SelectorExpr:
		// pkg.Const or x.field: qualified artifact constants resolve
		// through Uses; struct fields stay untainted.
		if obj := p.Info.Uses[x.Sel]; obj != nil && st.artifactConsts[obj] {
			t.artifact = true
		}
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			t = st.eval(x.X, params, locals).merge(st.eval(x.Y, params, locals))
		}
	case *ast.CallExpr:
		if isPkgCall(p, x, "path/filepath", "Join") || isPkgCall(p, x, "fmt", "Sprintf") {
			for _, arg := range x.Args {
				t = t.merge(st.eval(arg, params, locals))
			}
			return t
		}
		if name, ok := calleeName(x); ok && st.artifactFuncs[name] {
			t.artifact = true
		}
	case *ast.IndexExpr:
		t = st.eval(x.X, params, locals)
	}
	return t
}

// paramObjs maps each string-typed parameter object of fd to its
// positional index.
func paramObjs(p *Pass, fd *ast.FuncDecl) map[types.Object]int {
	out := map[types.Object]int{}
	i := 0
	for _, field := range fd.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Kind() == types.String {
					out[obj] = i
				}
			}
			i++
		}
	}
	return out
}

// rawWriteCall matches os.WriteFile(path, ...) and os.Create(path),
// returning the path argument.
func rawWriteCall(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) == 0 {
		return nil, false
	}
	if isPkgCall(p, call, "os", "WriteFile") || isPkgCall(p, call, "os", "Create") {
		return call.Args[0], true
	}
	return nil, false
}

// isPkgCall reports whether call is pkgpath.fn(...), resolved through
// the import (not just the selector text).
func isPkgCall(p *Pass, call *ast.CallExpr, pkgPath, fn string) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// calleeName returns the bare name of a direct in-package call (ident
// call or method call), for summary lookups.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// stringLit returns the value of a string basic literal, or "".
func stringLit(e ast.Expr) string {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING || len(lit.Value) < 2 {
		return ""
	}
	// Trim the quotes; escapes don't matter for suffix checks.
	return lit.Value[1 : len(lit.Value)-1]
}

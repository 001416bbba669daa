package batsched_test

// TestReachable is DESIGN.md §15 as a test: production code stays when a
// program can reach it, and reachability from its own tests alone does
// not pay for it. The analysis type-checks every non-test file of the
// module with the standard library alone (go/parser, go/types and the
// source importer) and walks what the programs can reach.
//
//   - Roots: main of every main package (cmd/, examples/, benchmark/),
//     every function and var the batsched facade declares, init
//     functions, package-level var initialisers, and reachAllow.
//   - A type the facade only aliases (Controller = live.Controller)
//     roots none of its methods or fields: each counts when a root
//     reaches it.
//   - Edges are identifier uses and method selections. Interface dispatch
//     is conservative: a method M of a reached type T is reached when
//     reached code calls M on an interface that T or *T implements, and
//     the methods stdlib interfaces call (reachStdMethods) are reached
//     with their type.
//   - An exported field of an exported struct counts only when reached
//     code writes it: a composite-literal key, an assignment, ++/--, or
//     &x.f (also the implicit one of x.f.M() with a pointer receiver). A
//     field that only tests set is a knob no program turns.
//
// A failure prints one "file:line  kind name" per unreachable
// declaration; the name is the form reachAllow takes.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow is DESIGN.md §15's safety list: code that exists to be
// reached by tests. Each entry is one declaration and why it stays; an
// entry that names nothing, or that a program reaches anyway, fails the
// test.
var reachAllow = map[string]string{
	// Fault hooks: the kill-restart batteries inject through these; a
	// program never asks to be broken.
	"internal/fault.Injector.KillAt":        "fault hook: where a kill-restart cuts the run",
	"internal/fault.Injector.KillFlushFrac": "fault hook: how much unsynced log survives the kill",
	"internal/fault.Config.KillRestart":     "fault hook: arms the whole-machine kill",
	// Checkers: independent oracles over executions the batteries run.
	"internal/modelcheck.Explore":                    "checker: exhaustive scheduler prefixes",
	"internal/modelcheck.ExploreCrashes":             "checker: exhaustive crash points",
	"internal/modelcheck.History.Committed":          "checker: the pre-committed set a battery compares",
	"internal/modelcheck.History.VerifyCommitPrefix": "checker: recovered set closed under conflict order",
	"internal/modelcheck.Evidence.Scans":             "checker input: the node logs a restart reads",
	"internal/modelcheck.Evidence.Recovery":          "checker input: what the restart kept",
	"internal/modelcheck.Evidence.Acked":             "checker input: the commits clients saw return",
	"internal/modelcheck.Evidence.Killed":            "checker input: the run was cut off",
	"internal/modelcheck.Evidence.Preload":           "checker input: the heap before the run",
	// Invariant probes the storage batteries assert.
	"internal/storage.Store.TornPages":    "invariant probe: pages open-time recovery discarded",
	"internal/storage.Store.PinnedFrames": "invariant probe: no frame stays pinned after a run",
	// Read by the frozen benchmark, never written: ROADMAP item 1(b)
	// retires each metric and its field together.
	"internal/storage.PoolStats.Prefetches": "benchmark contract: storage.prefetches_per_txn reads it",
	"internal/storage.PoolStats.Flushes":    "benchmark contract: storage.flushes_per_ktxn reads it",
}

func TestReachable(t *testing.T) {
	rep, err := reachReport(".", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	if rep != "" {
		t.Errorf("no program reaches these (DESIGN.md §15): delete each, move it into its package's export_test.go, or allowlist a safety hook in reachAllow with its reason\n%s", rep)
	}
}

// TestReachableFixture runs the same analysis on a small module under
// testdata/reach whose every case has a known verdict.
func TestReachableFixture(t *testing.T) {
	rep, err := reachReport(filepath.Join("testdata", "reach"), map[string]string{
		"internal/lib.InjectFault": "fault hook: the fixture's safety code",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `internal/lib/lib.go:16  field internal/lib.Config.Verbose
internal/lib/lib.go:20  func internal/lib.WithColor
internal/lib/lib.go:37  method internal/lib.Circle.Area
internal/lib/lib.go:43  method internal/lib.Thing.Unused
`
	if rep != want {
		t.Errorf("fixture report:\n%s\nwant:\n%s", rep, want)
	}
}

// reachStdMethods are the methods the standard library calls through
// its own interfaces (fmt.Stringer, error, json.Marshaler, sort and heap,
// io.WriteCloser, errors.Unwrap): a reached type's method of one of
// these names is reached with it.
var reachStdMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Write": true, "Close": true, "Unwrap": true,
}

type reachPkg struct {
	rel   string // directory relative to the module root; "" is the facade
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// reachLoader type-checks the module's packages in import order; the
// source importer supplies the standard library.
type reachLoader struct {
	fset *token.FileSet
	root string
	pkgs map[string]*reachPkg // by import path
	std  types.Importer
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p == nil {
		return l.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	return pkg, nil
}

// loadModule parses and type-checks every non-test file that builds on
// this host under root, skipping testdata and the directories the go
// tool ignores.
func loadModule(root string) (*reachLoader, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var mod string
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			mod = f[1]
		}
	}
	l := &reachLoader{fset: token.NewFileSet(), root: root, pkgs: map[string]*reachPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel, ipath := filepath.ToSlash(rel), mod
		if rel == "." {
			rel = ""
		} else {
			ipath += "/" + rel
		}
		p := l.pkgs[ipath]
		if p == nil {
			p = &reachPkg{rel: rel}
			l.pkgs[ipath] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range l.pkgs {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

type reachFunc struct {
	p *reachPkg
	d *ast.FuncDecl
}

// reacher propagates reachability to a fixed point.
type reacher struct {
	l       *reachLoader
	funcs   map[*types.Func]reachFunc
	reached map[types.Object]bool
	written map[*types.Var]bool
	seen    map[*types.Named]bool
	named   []*types.Named                       // reached module types, for dispatch
	ifaces  map[string]map[*types.Interface]bool // method name → interfaces it is called on
	queue   []*types.Func
}

func (r *reacher) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		o = o.Origin()
		if r.reached[o] {
			return
		}
		r.reached[o] = true
		sig := o.Type().(*types.Signature)
		if sig.Recv() != nil {
			r.reachType(sig.Recv().Type())
		}
		r.reachType(sig)
		r.queue = append(r.queue, o)
	case *types.Var:
		o = o.Origin()
		if !r.reached[o] {
			r.reached[o] = true
			r.reachType(o.Type())
		}
	case *types.TypeName:
		r.reachType(o.Type())
	}
}

func (r *reacher) reachType(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.reachType(t.TypeArgs().At(i))
		}
		o := t.Origin()
		if r.seen[o] {
			return
		}
		r.seen[o] = true
		if pkg := o.Obj().Pkg(); pkg != nil && r.l.pkgs[pkg.Path()] != nil && !types.IsInterface(o) {
			r.named = append(r.named, o)
		}
		r.reachType(o.Underlying())
	case *types.Pointer:
		r.reachType(t.Elem())
	case *types.Slice:
		r.reachType(t.Elem())
	case *types.Array:
		r.reachType(t.Elem())
	case *types.Chan:
		r.reachType(t.Elem())
	case *types.Map:
		r.reachType(t.Key())
		r.reachType(t.Elem())
	case *types.Signature:
		r.reachType(t.Params())
		r.reachType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			r.reachType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.reachType(t.Field(i).Type())
		}
	}
}

// walk records every use, interface call and field write under n.
func (r *reacher) walk(p *reachPkg, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := p.info.Uses[n]; obj != nil {
				r.use(obj)
			}
		case *ast.SelectorExpr:
			sel := p.info.Selections[n]
			if sel == nil || sel.Kind() == types.FieldVal {
				break
			}
			fn := sel.Obj().(*types.Func)
			recv := fn.Type().(*types.Signature).Recv()
			if it, ok := recv.Type().Underlying().(*types.Interface); ok {
				if r.ifaces[fn.Name()] == nil {
					r.ifaces[fn.Name()] = map[*types.Interface]bool{}
				}
				r.ifaces[fn.Name()][it] = true
			} else if _, ptr := recv.Type().(*types.Pointer); ptr && sel.Kind() == types.MethodVal {
				r.write(p, n.X) // x.f.M() with a pointer receiver takes &x.f
			}
		case *ast.CompositeLit:
			t := p.info.Types[n].Type
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok { // unkeyed: every field is written
					for i := 0; i < st.NumFields(); i++ {
						r.written[st.Field(i).Origin()] = true
					}
					break
				}
				if f, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
					r.written[f.Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				r.write(p, lhs)
			}
		case *ast.IncDecStmt:
			r.write(p, n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				r.write(p, n.X)
			}
		}
		return true
	})
}

// write marks the field e names, if it names one, as written.
func (r *reacher) write(p *reachPkg, e ast.Expr) {
	if e, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if sel := p.info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			r.written[sel.Obj().(*types.Var).Origin()] = true
		}
	}
}

// run drains the queue, then applies interface dispatch, until nothing
// new is reached.
func (r *reacher) run() {
	for {
		for len(r.queue) > 0 {
			fn := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			if d, ok := r.funcs[fn]; ok && d.d.Body != nil {
				r.walk(d.p, d.d.Body)
			}
		}
		for i := 0; i < len(r.named); i++ {
			t := r.named[i]
			for _, typ := range []types.Type{t, types.NewPointer(t)} {
				ms := types.NewMethodSet(typ)
				for j := 0; j < ms.Len(); j++ {
					fn := ms.At(j).Obj().(*types.Func).Origin()
					if !r.reached[fn] && (reachStdMethods[fn.Name()] || r.calledOn(t, typ, fn.Name())) {
						r.use(fn)
					}
				}
			}
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// calledOn reports whether reached code calls method name on an interface
// typ implements. A generic type is matched by name alone.
func (r *reacher) calledOn(t *types.Named, typ types.Type, name string) bool {
	for it := range r.ifaces[name] {
		if t.TypeParams().Len() > 0 || types.Implements(typ, it) {
			return true
		}
	}
	return false
}

// reachDecl is a declaration the analysis can flag.
type reachDecl struct {
	pos        token.Pos
	kind, name string
	fn         *types.Func
	field      *types.Var
}

// reachReport analyses the module at root and returns one line per
// unreachable declaration outside allow, plus one per allowlist entry that
// names nothing or that a program already reaches; "" when all is well.
func reachReport(root string, allow map[string]string) (string, error) {
	l, err := loadModule(root)
	if err != nil {
		return "", err
	}
	r := &reacher{
		l:       l,
		funcs:   map[*types.Func]reachFunc{},
		reached: map[types.Object]bool{},
		written: map[*types.Var]bool{},
		seen:    map[*types.Named]bool{},
		ifaces:  map[string]map[*types.Interface]bool{},
	}
	var decls []reachDecl
	var roots []*types.Func
	for _, p := range l.pkgs {
		facade, main := p.rel == "", p.pkg.Name() == "main"
		prefix := p.rel + "."
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					r.funcs[fn] = reachFunc{p, d}
					name := d.Name.Name
					switch {
					case d.Recv == nil && (name == "init" || facade || main && name == "main"):
						roots = append(roots, fn)
					case name != "_" && !facade:
						kind, full := "func", prefix+name
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
							kind, full = "method", prefix+reachRecvName(recv.Type())+"."+name
						}
						decls = append(decls, reachDecl{pos: d.Name.Pos(), kind: kind, name: full, fn: fn})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.ValueSpec:
							if d.Tok != token.VAR {
								continue
							}
							for _, v := range s.Values {
								r.walk(p, v)
							}
							for _, id := range s.Names {
								if facade {
									r.use(p.info.Defs[id])
								}
							}
						case *ast.TypeSpec:
							st, ok := s.Type.(*ast.StructType)
							if !ok || facade || main || !s.Name.IsExported() {
								continue
							}
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									if id.IsExported() {
										decls = append(decls, reachDecl{pos: id.Pos(), kind: "field",
											name: prefix + s.Name.Name + "." + id.Name, field: p.info.Defs[id].(*types.Var)})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, fn := range roots {
		r.use(fn)
	}
	return r.report(decls, allow), nil
}

func (r *reacher) report(decls []reachDecl, allow map[string]string) string {
	live := func(d reachDecl) bool {
		if d.fn != nil {
			return r.reached[d.fn]
		}
		return r.written[d.field]
	}
	r.run()
	var out []string
	byName := map[string]reachDecl{}
	for _, d := range decls {
		byName[d.name] = d
	}
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, ok := byName[name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("reach_test.go  allow %s: no such declaration", name))
		case live(d):
			out = append(out, fmt.Sprintf("reach_test.go  allow %s: a program reaches it; drop the entry", name))
		case d.fn != nil:
			r.use(d.fn)
		}
	}
	r.run()
	sort.Slice(decls, func(i, j int) bool {
		a, b := r.l.fset.Position(decls[i].pos), r.l.fset.Position(decls[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range decls {
		if _, ok := allow[d.name]; ok || live(d) {
			continue
		}
		pos := r.l.fset.Position(d.pos)
		file, _ := filepath.Rel(r.l.root, pos.Filename)
		out = append(out, fmt.Sprintf("%s:%d  %s %s", filepath.ToSlash(file), pos.Line, d.kind, d.name))
	}
	if len(out) == 0 {
		return ""
	}
	return strings.Join(out, "\n") + "\n"
}

// reachRecvName is the receiver's type name without pointer or type
// parameters.
func reachRecvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

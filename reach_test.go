package relm

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions no root reaches that stay anyway, each
// with its reason. An entry that names no function, or one a root reaches,
// fails the test, so the list cannot go stale.
//
// Exported methods of the types relm.go aliases (Evaluator.Reset,
// DDPGAgent.Save, SavedSizeBytes and ReplayLen, Workload.Validate and
// TotalTasks, Profile.EachTask and EachGC) need no entry: they are public
// API, so they are roots.
var reachAllowlist = map[string]string{
	"relm/internal/fault.Apply":               "other packages' tests arm failpoints with it; no binary may",
	"relm/internal/fault.DisarmAll":           "other packages' tests disarm the failpoints they armed with it",
	"relm/internal/fault.Snapshot":            "the router's chaos and fault tests read each rule's hits and fires with it",
	"(*relm/internal/simrand.Rand).Range":     "the rf, gp and ddpg tests draw their inputs with it",
	"relm/internal/obs.MergeHists":            "the loadgen and router tests merge digests with it",
	"relm/internal/linalg.FromRows":           "linalg's tests build their fixture matrices with it",
	"(*relm/internal/linalg.Matrix).Mul":      "linalg's tests build B·Bᵀ fixtures and check Cholesky's L·Lᵀ with it",
	"(*relm/internal/linalg.Matrix).T":        "linalg's tests build B·Bᵀ fixtures and check Cholesky's L·Lᵀ with it",
	"(*relm/internal/linalg.Matrix).MulVec":   "TestCholSolveProperty builds A·x with it (MulVecInto, its body, stays with it)",
	"relm/internal/linalg.SolveLower":         "TestSolveIntoVariantsAliasSafe checks SolveLowerInto, which the GP runs, against it",
	"relm/internal/linalg.SolveUpperT":        "TestSolveIntoVariantsAliasSafe checks SolveUpperTInto, which the GP runs, against it",
	"relm/internal/linalg.CholSolve":          "TestSolveIntoVariantsAliasSafe checks CholSolveInto, which the GP runs, against it",
	"(relm/internal/sim/jvm.Layout).Validate": "TestLayoutProperty checks the pool arithmetic over every layout it accepts",
}

// reachCalledByStd are the methods the standard library calls through an
// interface (fmt, errors, net/http, encoding/json, sort), which no walk of
// this module's own code sees called.
var reachCalledByStd = []string{"String", "Error", "ServeHTTP", "MarshalJSON", "UnmarshalJSON", "Len", "Less", "Swap"}

// TestEveryFunctionIsReached fails on a non-test function of module relm
// that no binary, figure, example, the facade or the benchmark can reach:
// code only its own tests call is code nothing runs. The roots are main and
// init functions and package-level initializers, the facade's exported
// functions and every exported method of a type it aliases, every function
// of the benchmark module, and the methods in reachCalledByStd. A reference
// to a function reaches it (called or not); a call through an interface
// method reaches every method of that name.
func TestEveryFunctionIsReached(t *testing.T) {
	l := newReachLoader(t)
	var pkgs []*reachPkg
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := l.ctxt.ImportDir(path, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(l.root, path)
		p, err := l.own(filepath.ToSlash(filepath.Join("relm", rel)))
		if err != nil {
			return err
		}
		pkgs = append(pkgs, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	r := &reacher{decls: map[*types.Func]reachNode{}, seen: map[*types.Func]bool{}, named: map[string]bool{}, byName: map[string][]*types.Func{}}
	var roots []*types.Func
	var inits []reachNode
	for _, p := range pkgs {
		bench := p.pkg.Path() == "relm/benchmark"
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					r.decls[fn] = reachNode{d, p}
					if d.Recv != nil {
						r.byName[fn.Name()] = append(r.byName[fn.Name()], fn)
					}
					if bench || d.Recv == nil && (d.Name.Name == "init" ||
						d.Name.Name == "main" && p.pkg.Name() == "main" ||
						p.pkg.Path() == "relm" && d.Name.IsExported()) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						inits = append(inits, reachNode{d, p})
					}
				}
			}
		}
	}
	facade := l.mine["relm"].pkg.Scope()
	for _, name := range facade.Names() {
		tn, ok := facade.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		typ := tn.Type()
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		ms := types.NewMethodSet(typ)
		for i := range ms.Len() {
			if m := ms.At(i).Obj().(*types.Func); m.Exported() {
				r.reach(m)
			}
		}
	}
	for _, name := range reachCalledByStd {
		r.callByName(name)
	}
	for _, fn := range roots {
		r.reach(fn)
	}
	for _, n := range inits {
		r.walk(n)
	}
	r.drain()

	// What an allowlisted function calls stays with it.
	allowed := map[string]bool{}
	for fn := range r.decls {
		name := fn.FullName()
		if _, ok := reachAllowlist[name]; !ok {
			continue
		}
		allowed[name] = true
		if r.seen[fn] {
			t.Errorf("%s is on the allowlist but a root reaches it: delete its entry", name)
		}
		r.reach(fn)
	}
	for name := range reachAllowlist {
		if !allowed[name] {
			t.Errorf("allowlist entry %s names no function", name)
		}
	}
	r.drain()

	var dead []string
	for fn, d := range r.decls {
		if !r.seen[fn] {
			dead = append(dead, fn.FullName()+" ("+l.fset.Position(d.node.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions no binary, figure, example, the facade or the benchmark reaches; delete them with the tests whose only subject they are, or put them on reachAllowlist with a reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// reachPkg is one package of module relm, type-checked with its bodies.
type reachPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// reachNode is a declaration to walk and the package that declares it.
type reachNode struct {
	node ast.Node
	pkg  *reachPkg
}

type reacher struct {
	decls  map[*types.Func]reachNode
	seen   map[*types.Func]bool
	named  map[string]bool // method names called through an interface
	byName map[string][]*types.Func
	queue  []reachNode
}

func (r *reacher) reach(fn *types.Func) {
	fn = fn.Origin()
	if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		r.callByName(fn.Name())
		return
	}
	if r.seen[fn] {
		return
	}
	r.seen[fn] = true
	if d, ok := r.decls[fn]; ok {
		r.queue = append(r.queue, d)
	}
}

// drain walks every function reached and not yet walked.
func (r *reacher) drain() {
	for len(r.queue) > 0 {
		n := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(n)
	}
}

func (r *reacher) callByName(name string) {
	if r.named[name] {
		return
	}
	r.named[name] = true
	for _, fn := range r.byName[name] {
		r.reach(fn)
	}
}

func (r *reacher) walk(n reachNode) {
	ast.Inspect(n.node, func(n2 ast.Node) bool {
		if id, ok := n2.(*ast.Ident); ok {
			if fn, ok := n.pkg.info.Uses[id].(*types.Func); ok {
				r.reach(fn)
			}
		}
		return true
	})
}

// reachLoader type-checks module relm's packages with their bodies and the
// standard library from source without them, for the host's GOOS/GOARCH.
type reachLoader struct {
	ctxt build.Context
	fset *token.FileSet
	root string
	std  map[string]*types.Package
	mine map[string]*reachPkg
}

func newReachLoader(t *testing.T) *reachLoader {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	ctxt := build.Default
	ctxt.CgoEnabled = false // the pure-Go standard library; nothing here uses cgo
	return &reachLoader{ctxt: ctxt, fset: token.NewFileSet(), root: root, std: map[string]*types.Package{}, mine: map[string]*reachPkg{}}
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *reachLoader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == "relm" || strings.HasPrefix(path, "relm/") {
		p, err := l.own(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	bp, err := l.ctxt.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	if p, ok := l.std[bp.ImportPath]; ok {
		return p, nil
	}
	files, err := l.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: true}
	p, err := conf.Check(bp.ImportPath, l.fset, files, nil)
	if err != nil {
		return nil, err
	}
	l.std[bp.ImportPath] = p
	return p, nil
}

func (l *reachLoader) own(path string) (*reachPkg, error) {
	if p, ok := l.mine[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, "relm")))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{files: files, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, files, p.info); err != nil {
		return nil, err
	}
	l.mine[path] = p
	return p, nil
}

func (l *reachLoader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

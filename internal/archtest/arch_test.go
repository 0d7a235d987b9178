package archtest

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

const module = "github.com/seed5g/seed"

// ---------------------------------------------------------------------------
// Loading the module
// ---------------------------------------------------------------------------

// unit is one set of files type-checked as one package: a package's
// non-test files, the same with its in-package test files, its external
// test package, or a fixture.
type unit struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	// variant marks a test variant: it checks test files, and the
	// in-package one the non-test files again.
	variant bool
}

// loader type-checks the module's packages, each once and concurrently,
// and the standard library from source.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*build.Package  // module packages by import path
	deps map[string]map[string]bool // module imports by import path, transitive

	stdMu sync.Mutex // the source importer is not safe for concurrent use
	std   types.Importer

	mu     sync.Mutex
	parsed map[string]*ast.File // by file name
	prod   map[string]*pending  // non-test units by import path
}

// pending is a unit some goroutine is checking; done closes when it is.
type pending struct {
	done chan struct{}
	u    *unit
	err  error
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func inModule(path string) bool { return path == module || strings.HasPrefix(path, module+"/") }

// newLoader lists the module's packages under root with go/build, so build
// constraints pick each directory's files. benchmark/ is its own module, and
// testdata/ directories are not packages.
func newLoader(root string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		pkgs:   map[string]*build.Package{},
		deps:   map[string]map[string]bool{},
		std:    importer.ForCompiler(fset, "source", nil),
		parsed: map[string]*ast.File{},
		prod:   map[string]*pending{},
	}
	err := filepath.WalkDir(root, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		name := e.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") ||
			dir == filepath.Join(root, "benchmark") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		l.pkgs[modPath(filepath.ToSlash(rel))] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range l.pkgs {
		l.depsOf(p)
	}
	return l, nil
}

// depsOf returns the module packages path imports, directly or not.
func (l *loader) depsOf(path string) map[string]bool {
	if d := l.deps[path]; d != nil {
		return d
	}
	d := map[string]bool{}
	for _, imp := range l.pkgs[path].Imports {
		if inModule(imp) {
			d[imp] = true
			for dep := range l.depsOf(imp) {
				d[dep] = true
			}
		}
	}
	l.deps[path] = d
	return d
}

func (l *loader) parse(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		fn := filepath.Join(dir, name)
		l.mu.Lock()
		f := l.parsed[fn]
		l.mu.Unlock()
		if f == nil {
			var err error
			if f, err = parser.ParseFile(l.fset, fn, nil, mode|parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			l.mu.Lock()
			l.parsed[fn] = f
			l.mu.Unlock()
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *loader) check(path string, files []*ast.File, imp types.Importer) (*unit, error) {
	u := &unit{files: files, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var err error
	u.pkg, err = (&types.Config{Importer: imp}).Check(path, l.fset, files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return u, nil
}

// Import is the importer of the non-test units: the module's packages are
// checked once each, everything else comes from the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		l.stdMu.Lock()
		defer l.stdMu.Unlock()
		return l.std.Import(path)
	}
	u, err := l.prodUnit(path)
	if err != nil {
		return nil, err
	}
	return u.pkg, nil
}

// prodUnit checks path's non-test files, or waits for the goroutine that
// does.
func (l *loader) prodUnit(path string) (*unit, error) {
	l.mu.Lock()
	p := l.prod[path]
	if p != nil {
		l.mu.Unlock()
		<-p.done
		return p.u, p.err
	}
	p = &pending{done: make(chan struct{})}
	l.prod[path] = p
	l.mu.Unlock()
	defer close(p.done)
	bp := l.pkgs[path]
	if bp == nil {
		p.err = fmt.Errorf("no package %s in the module", path)
		return nil, p.err
	}
	var files []*ast.File
	if files, p.err = l.parse(bp.Dir, bp.GoFiles, 0); p.err == nil {
		p.u, p.err = l.check(path, files, l)
	}
	return p.u, p.err
}

// testImporter is the importer of path's external test package: path
// itself is its in-package test variant, and every module package that
// depends on path is checked again against that variant, as go test
// builds them.
func (l *loader) testImporter(path string, variant *types.Package) types.Importer {
	cache := map[string]*types.Package{path: variant}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg := cache[p]; pkg != nil {
			return pkg, nil
		}
		if !inModule(p) || !l.deps[p][path] {
			return l.Import(p)
		}
		bp := l.pkgs[p]
		files, err := l.parse(bp.Dir, bp.GoFiles, 0)
		if err != nil {
			return nil, err
		}
		u, err := l.check(p, files, imp)
		if err != nil {
			return nil, err
		}
		cache[p] = u.pkg
		return u.pkg, nil
	}
	return imp
}

// testUnits checks path's in-package test variant, if it has test files,
// and its external test package, if it has one.
func (l *loader) testUnits(path string) ([]*unit, error) {
	bp := l.pkgs[path]
	var out []*unit
	var variant *types.Package
	if len(bp.GoFiles) > 0 {
		u, err := l.prodUnit(path)
		if err != nil {
			return nil, err
		}
		variant = u.pkg
	}
	if len(bp.TestGoFiles) > 0 {
		files, err := l.parse(bp.Dir, append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...), 0)
		if err != nil {
			return nil, err
		}
		u, err := l.check(path, files, l)
		if err != nil {
			return nil, err
		}
		u.variant = true
		out = append(out, u)
		variant = u.pkg
	}
	if len(bp.XTestGoFiles) > 0 {
		files, err := l.parse(bp.Dir, bp.XTestGoFiles, 0)
		if err != nil {
			return nil, err
		}
		u, err := l.check(path+"_test", files, l.testImporter(path, variant))
		if err != nil {
			return nil, err
		}
		u.variant = true
		out = append(out, u)
	}
	return out, nil
}

// world is what the rules read: every unit, and each file by name.
type world struct {
	fset   *token.FileSet
	root   string
	units  []*unit
	byName map[string]*ast.File
}

func newWorld(fset *token.FileSet, root string, units []*unit) *world {
	w := &world{fset: fset, root: root, units: units, byName: map[string]*ast.File{}}
	for _, u := range units {
		for _, f := range u.files {
			w.byName[fset.File(f.Pos()).Name()] = f
		}
	}
	return w
}

// loadWorld checks every package of the module under root, one goroutine
// per package: its non-test files, the same with its in-package test
// files, and its external test package.
func loadWorld(root string) (*world, *loader, error) {
	l, err := newLoader(root)
	if err != nil {
		return nil, nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	tests := make([][]*unit, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			tests[i], errs[i] = l.testUnits(p)
		}(i, p)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	var units []*unit
	for _, p := range paths {
		if len(l.pkgs[p].GoFiles) > 0 {
			units = append(units, l.prod[p].u)
		}
	}
	for _, us := range tests {
		units = append(units, us...)
	}
	return newWorld(l.fset, root, units), l, nil
}

// withFixture checks the files of dir under the import path path, after
// that package's own non-test files when alongside is set, and returns the
// world with the fixture in place of the package's non-test unit.
func (w *world) withFixture(l *loader, dir, path string, alongside bool) (*world, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := l.parse(dir, append(append([]string(nil), bp.GoFiles...), bp.TestGoFiles...), parser.ParseComments)
	if err != nil {
		return nil, err
	}
	real, err := l.prodUnit(path)
	if err != nil {
		return nil, err
	}
	if alongside {
		files = append(append([]*ast.File(nil), real.files...), files...)
	}
	fx, err := l.check(path, files, l)
	if err != nil {
		return nil, err
	}
	units := []*unit{fx}
	for _, u := range w.units {
		if !alongside || u != real {
			units = append(units, u)
		}
	}
	return newWorld(w.fset, w.root, units), nil
}

// ---------------------------------------------------------------------------
// Reading the world
// ---------------------------------------------------------------------------

type violation struct {
	rule string
	pos  token.Position
	msg  string
}

func (v violation) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", v.pos.Filename, v.pos.Line, v.rule, v.msg)
}

// report accumulates one rule's violations, each once.
type report struct {
	w    *world
	rule string
	seen map[string]bool
	out  []violation
}

func (r *report) add(at token.Pos, format string, args ...any) {
	pos := r.w.fset.Position(at)
	if rel, err := filepath.Rel(r.w.root, pos.Filename); err == nil {
		pos.Filename = filepath.ToSlash(rel)
	}
	v := violation{r.rule, pos, fmt.Sprintf(format, args...)}
	if key := v.String(); !r.seen[key] {
		r.seen[key] = true
		r.out = append(r.out, v)
	}
}

// site is where a node sits: its file, the import path the file is checked
// under, the file's base name, and whether it is a test file.
type site struct {
	file *ast.File
	pkg  string
	base string
	test bool
}

func (w *world) site(u *unit, pos token.Pos) site {
	name := w.fset.File(pos).Name()
	return site{w.byName[name], u.pkg.Path(), filepath.Base(name), strings.HasSuffix(name, "_test.go")}
}

// decl returns the top-level declaration of s's file that pos is in.
func (s site) decl(pos token.Pos) ast.Decl {
	decls := s.file.Decls
	i := sort.Search(len(decls), func(i int) bool { return decls[i].End() > pos })
	if i < len(decls) && decls[i].Pos() <= pos {
		return decls[i]
	}
	return nil
}

// prod returns the units the non-test rules read: each package's non-test
// unit and the fixture, not the test variants, which check the same
// non-test files again.
func (w *world) prod() []*unit {
	var out []*unit
	for _, u := range w.units {
		if !u.variant {
			out = append(out, u)
		}
	}
	return out
}

// prodFiles returns the non-test files of the non-test units checked under
// the given module-relative import paths.
func (w *world) prodFiles(rel ...string) []prodFile {
	var out []prodFile
	for _, u := range w.prod() {
		if !slices.ContainsFunc(rel, func(p string) bool { return u.pkg.Path() == modPath(p) }) {
			continue
		}
		for _, f := range u.files {
			if s := w.site(u, f.Pos()); !s.test {
				out = append(out, prodFile{u, s})
			}
		}
	}
	return out
}

type prodFile struct {
	u *unit
	site
}

func modPath(rel string) string {
	if rel == "." {
		return module
	}
	return module + "/" + rel
}

// isObj reports whether obj is the module's package-level object or method
// pkg.[recv.]name; recv is the receiver's type name without a pointer, ""
// for anything but a method. pkg is module-relative.
func isObj(obj types.Object, pkg, recv, name string) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != modPath(pkg) || obj.Name() != name {
		return false
	}
	if fn, ok := obj.(*types.Func); ok {
		return recvName(fn.Origin()) == recv
	}
	return recv == ""
}

// recvName is the name of fn's receiver type, "" for a function.
func recvName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// isNamed reports whether t is the module's named type pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && isObj(n.Obj(), pkg, "", name)
}

// isField reports whether v is the field name of the module's struct type
// pkg.typeName.
func isField(v *types.Var, pkg, typeName, name string) bool {
	if v.Pkg() == nil || v.Pkg().Path() != modPath(pkg) || v.Name() != name {
		return false
	}
	tn, _ := v.Pkg().Scope().Lookup(typeName).(*types.TypeName)
	if tn == nil {
		return false
	}
	st, _ := tn.Type().Underlying().(*types.Struct)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return true
		}
	}
	return false
}

// pkgName qualifies a type by its package's name.
func pkgName(p *types.Package) string { return p.Name() }

// callee is what a call calls: a function, a method or a builtin.
func callee(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.Ident:
			return info.Uses[f]
		case *ast.SelectorExpr:
			return info.Uses[f.Sel]
		default:
			return nil
		}
	}
}

func isBuiltin(info *types.Info, call *ast.CallExpr, names ...string) bool {
	b, ok := callee(info, call).(*types.Builtin)
	return ok && slices.Contains(names, b.Name())
}

// declName names a top-level function declaration "name" or "Recv.name",
// and anything else "".
func declName(decl ast.Decl) string {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// sigKey spells a signature's parameter and result types, without names or
// receiver, so signatures from different checks of one package compare.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// holdsRef reports whether a value of type t refers to memory beyond
// itself: it is or contains a pointer, slice, map, channel, function or
// interface. A string is immutable and does not count.
func holdsRef(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Array:
		return holdsRef(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsRef(u.Field(i).Type()) {
				return true
			}
		}
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------------

type rule struct {
	name string
	// fixture is the module-relative import path testdata/<name> is checked
	// under; alongside checks it together with that package's own files.
	fixture   string
	alongside bool
	check     func(r *report)
}

var rules = []rule{
	{"package-state", "internal/runner", false, rulePackageState},
	{"mirror-vocabulary", ".", false, ruleMirrorVocabulary},
	{"seeded-streams", "internal/fleet", false, ruleSeededStreams},
	{"one-apply-path", "internal/fleet", false, ruleOneApplyPath},
	{"one-request-loop", "internal/fleet", false, ruleOneRequestLoop},
	{"one-record-table", "internal/fleet", false, ruleOneRecordTable},
	{"scratch-sends", "internal/modem", false, ruleScratchSends},
	{"packets-by-pointer", "internal/core5g", false, rulePacketsByPointer},
	{"one-way-to-run", "cmd/seedsim", false, ruleOneWayToRun},
	{"one-observer", "internal/core5g", false, ruleOneObserver},
	{"boot-captures", ".", true, ruleBootCaptures},
	{"observer-keeps", "internal/adversary", false, ruleObserverKeeps},
	{"settable-fields", "internal/fleet", false, ruleSettableFields},
}

// Rule package-state: a package-level var declared in the module's non-test
// code is written only by package initialization — its initializer, an init
// func, or a function referenced only from init funcs — in production and
// test code alike. A write is an assignment, an op-assignment, ++/--, a
// write through an index, a field or a pointer, delete/clear on it, or a
// pointer method called on it (an atomic's Store; package sync's types
// aside).
func rulePackageState(r *report) {
	for _, u := range r.w.units {
		initOnly := initOnlyFuncs(u)
		for _, f := range u.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && (fd.Name.Name == "init" || initOnly[u.info.Defs[fd.Name]]) {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					var targets []ast.Expr
					switch n := n.(type) {
					case *ast.AssignStmt:
						if n.Tok != token.DEFINE {
							targets = n.Lhs
						}
					case *ast.IncDecStmt:
						targets = []ast.Expr{n.X}
					case *ast.RangeStmt:
						if n.Tok == token.ASSIGN {
							targets = []ast.Expr{n.Key, n.Value}
						}
					case *ast.CallExpr:
						if isBuiltin(u.info, n, "delete", "clear") {
							targets = n.Args[:1]
						} else if x := mutatingReceiver(u.info, n); x != nil {
							targets = []ast.Expr{x}
						}
					}
					for _, t := range targets {
						if v := packageVar(r.w, u.info, t); v != nil {
							r.add(t.Pos(), "%s writes package-level var %s.%s outside package initialization",
								declName(fd), v.Pkg().Name(), v.Name())
						}
					}
					return true
				})
			}
		}
	}
}

// mutatingReceiver returns the receiver of a call to a pointer method on an
// addressable value — a call that may write it, as an atomic's Store does —
// nil for any other call, and for the types of package sync, whose pools,
// caches and locks hold no setting.
func mutatingReceiver(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
		return nil
	}
	recv := info.Types[sel.X].Type
	if _, ptr := recv.Underlying().(*types.Pointer); ptr {
		return nil
	}
	if n, ok := types.Unalias(recv).(*types.Named); ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync" {
		return nil
	}
	return sel.X
}

// packageVar returns the module's non-test package-level var that a write
// to e writes, nil if none.
func packageVar(w *world, info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if info.Selections[x] != nil {
				e = x.X
			} else {
				e = x.Sel
			}
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			if v == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || !inModule(v.Pkg().Path()) ||
				strings.HasSuffix(w.fset.File(v.Pos()).Name(), "_test.go") {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}

// initOnlyFuncs returns the unit's package-level functions referenced only
// from init funcs.
func initOnlyFuncs(u *unit) map[types.Object]bool {
	var inits []*ast.FuncDecl
	for _, f := range u.files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
				inits = append(inits, fd)
			}
		}
	}
	only := map[types.Object]bool{}
	for id, obj := range u.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() != u.pkg {
			continue
		}
		inInit := slices.ContainsFunc(inits, func(fd *ast.FuncDecl) bool { return fd.Pos() <= id.Pos() && id.Pos() < fd.End() })
		if prev, seen := only[fn]; !seen || prev {
			only[fn] = inInit
		}
	}
	return only
}

// Rule mirror-vocabulary: each name the root package shares with an internal
// package is an alias of the type that package declares, not a type of its
// own.
func ruleMirrorVocabulary(r *report) {
	for _, u := range r.w.prod() {
		if u.pkg.Path() != module {
			continue
		}
		for _, name := range []string{"Mode", "AppKind", "FailureScenario", "DeliveryFailureKind", "DeliveryCase", "ReplayResult"} {
			tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				r.add(u.files[0].Package, "the root package declares no type %s", name)
				continue
			}
			n, ok := types.Unalias(tn.Type()).(*types.Named)
			if !tn.IsAlias() || !ok || !strings.HasPrefix(n.Obj().Pkg().Path(), module+"/internal/") {
				r.add(tn.Pos(), "%s is not an alias of a type an internal package declares", name)
			}
		}
	}
}

// Rule seeded-streams: in non-test code math/rand.NewSource is referenced
// only by the kernel's source (internal/sched), the fleet client's backoff
// jitter and the load generator's device workloads; every other stream is
// a kernel's Rand() or sched.NewRand.
func ruleSeededStreams(r *report) {
	allowed := map[string]bool{
		modPath("internal/sched") + " rng.go":    true,
		modPath("internal/fleet") + " client.go": true,
		modPath("cmd/seedload") + " main.go":     true,
	}
	for _, u := range r.w.prod() {
		for id, obj := range u.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" || fn.Name() != "NewSource" {
				continue
			}
			if s := r.w.site(u, id.Pos()); !s.test && !allowed[s.pkg+" "+s.base] {
				r.add(id.Pos(), "math/rand.NewSource outside the seeded-stream owners")
			}
		}
	}
}

// Rule one-apply-path: in internal/fleet every envelope open — a call of
// Envelope.Open or Envelope.AppendOpen — passes a constant direction;
// exactly one passes Uplink, in (*shard).apply, the one place a journal
// record changes a shard.
func ruleOneApplyPath(r *report) {
	// dirArg is the index of the direction argument of each method that
	// opens.
	dirArg := map[string]int{"Open": 0, "AppendOpen": 1}
	opens := func(obj types.Object) bool {
		if obj == nil {
			return false
		}
		_, ok := dirArg[obj.Name()]
		return ok && isObj(obj, "internal/crypto5g", "Envelope", obj.Name())
	}
	files := r.w.prodFiles("internal/fleet")
	calls := map[*ast.Ident]bool{}
	inApply := 0
	for _, f := range files {
		info := f.u.info
		for _, decl := range f.file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !opens(callee(info, call)) {
					return true
				}
				calls[ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel] = true
				fn := callee(info, call)
				crypto := fn.Pkg().Scope()
				dir := info.Types[call.Args[dirArg[fn.Name()]]].Value
				is := func(name string) bool {
					return dir != nil && constant.Compare(dir, token.EQL, crypto.Lookup(name).(*types.Const).Val())
				}
				switch {
				case is("Downlink"):
				case is("Uplink") && declName(decl) == "shard.apply":
					inApply++
				default:
					r.add(call.Pos(), "Envelope.%s outside (*shard).apply opens a non-downlink direction", fn.Name())
				}
				return true
			})
		}
	}
	for _, u := range r.w.prod() {
		if u.pkg.Path() != modPath("internal/fleet") {
			continue
		}
		for id, obj := range u.info.Uses {
			if !calls[id] && opens(obj) && !r.w.site(u, id.Pos()).test {
				r.add(id.Pos(), "Envelope.%s referenced without a call", obj.Name())
			}
		}
	}
	if inApply != 1 && len(files) > 0 {
		r.add(files[0].file.Package, "(*shard).apply opens %d uplink envelopes, want 1", inApply)
	}
}

// Rule one-request-loop: in internal/fleet (*muxConn).roundTrip, one
// exchange on a client connection, is called once, in (*Client).do, the
// client's one request loop, and referenced nowhere else, so no second
// retry layer wraps it.
func ruleOneRequestLoop(r *report) {
	files := r.w.prodFiles("internal/fleet")
	calls := map[*ast.Ident]bool{}
	inDo := 0
	for _, f := range files {
		info := f.u.info
		for _, decl := range f.file.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isObj(callee(info, call), "internal/fleet", "muxConn", "roundTrip") {
					return true
				}
				calls[ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel] = true
				if declName(decl) == "Client.do" {
					inDo++
				} else {
					r.add(call.Pos(), "(*muxConn).roundTrip called outside (*Client).do, the client's one request loop")
				}
				return true
			})
		}
	}
	for _, u := range r.w.prod() {
		if u.pkg.Path() != modPath("internal/fleet") {
			continue
		}
		for id, obj := range u.info.Uses {
			if !calls[id] && isObj(obj, "internal/fleet", "muxConn", "roundTrip") && !r.w.site(u, id.Pos()).test {
				r.add(id.Pos(), "(*muxConn).roundTrip referenced without a call")
			}
		}
	}
	if inDo != 1 && len(files) > 0 {
		r.add(files[0].file.Package, "(*Client).do calls (*muxConn).roundTrip %d times, want 1", inDo)
	}
}

// Rule one-record-table: outside internal/core no type is a map keyed by
// cause.Cause whose element is a map; Algorithm 1's table is core.Records.
func ruleOneRecordTable(r *report) {
	for _, u := range r.w.prod() {
		if u.pkg.Path() == modPath("internal/core") {
			continue
		}
		for e, tv := range u.info.Types {
			m, ok := types.Unalias(tv.Type).(*types.Map)
			if !ok || !isNamed(m.Key(), "internal/cause", "Cause") {
				continue
			}
			if _, inner := m.Elem().Underlying().(*types.Map); inner && !r.w.site(u, e.Pos()).test {
				r.add(e.Pos(), "%s spells the record table outside internal/core", types.TypeString(m, pkgName))
			}
		}
	}
}

// Rule scratch-sends: the modem and the network build every message they
// send in the sender's scratch, so no call argument there is a composite
// literal of a nas type, or its address; and a testbed's one nas.Pool and
// radio.NASPool are allocated in internal/core5g/network.go only.
func ruleScratchSends(r *report) {
	for _, f := range r.w.prodFiles("internal/modem", "internal/core5g") {
		ast.Inspect(f.file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				arg = ast.Unparen(arg)
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = ast.Unparen(u.X)
				}
				if lit, ok := arg.(*ast.CompositeLit); ok {
					if n, ok := types.Unalias(f.u.info.Types[lit].Type).(*types.Named); ok && n.Obj().Pkg().Path() == modPath("internal/nas") {
						r.add(lit.Pos(), "a nas.%s literal passed to a call: build it in the sender's scratch", n.Obj().Name())
					}
				}
			}
			return true
		})
	}
	isPool := func(t types.Type) bool {
		return isNamed(t, "internal/nas", "Pool") || isNamed(t, "internal/radio", "NASPool")
	}
	for _, u := range r.w.prod() {
		for e, tv := range u.info.Types {
			var pool types.Type
			switch e := e.(type) {
			case *ast.CompositeLit:
				pool = tv.Type
			case *ast.CallExpr:
				if p, ok := tv.Type.(*types.Pointer); ok && isBuiltin(u.info, e, "new") {
					pool = p.Elem()
				}
			}
			if pool == nil || !isPool(pool) {
				continue
			}
			if s := r.w.site(u, e.Pos()); !s.test && (s.pkg != modPath("internal/core5g") || s.base != "network.go") {
				r.add(e.Pos(), "%s allocated outside internal/core5g/network.go", types.TypeString(pool, pkgName))
			}
		}
	}
}

// Rule packets-by-pointer: a packet crosses the stack by pointer in the one
// frame it was born in. No signature — function, method, func literal or
// func type — has a radio.Packet parameter or result, and no struct field
// holds one by value but dataplane.App.scratch, where a packet is born.
// (A type-switch arm is not a signature.)
func rulePacketsByPointer(r *report) {
	isPacket := func(t types.Type) bool { return isNamed(t, "internal/radio", "Packet") }
	check := func(u *unit, at token.Pos, what string, t types.Type) {
		sig, ok := t.(*types.Signature)
		if !ok || r.w.site(u, at).test {
			return
		}
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				if isPacket(tuple.At(i).Type()) {
					r.add(at, "%s takes or returns a radio.Packet by value", what)
					return
				}
			}
		}
	}
	for _, u := range r.w.prod() {
		for id, obj := range u.info.Defs {
			switch obj := obj.(type) {
			case *types.Func:
				check(u, id.Pos(), obj.Name(), obj.Type())
			case *types.Var:
				if obj.IsField() && isPacket(obj.Type()) && !isField(obj, "internal/dataplane", "App", "scratch") && !r.w.site(u, id.Pos()).test {
					r.add(id.Pos(), "field %s holds a radio.Packet by value", obj.Name())
				}
			}
		}
		for e, tv := range u.info.Types {
			switch e.(type) {
			case *ast.FuncLit:
				check(u, e.Pos(), "func literal", tv.Type)
			case *ast.FuncType:
				check(u, e.Pos(), "func type", tv.Type)
			}
		}
	}
}

// Rule one-way-to-run: every root-package cell is a trial run by trial.run
// over a steady state booted into proto.go's prototypes. NewProto and
// NewProtoMap are called in proto.go only; (*Proto).cell, which acquires,
// restores and reseeds an instance, only by trial.run and (*Proto).Cell,
// and Cell only by trial.run;
// (*Testbed).RunUntil nowhere (waits are subscribed); New and NewDevice only
// in proto.go, seedResetTrial (its second device) and ExperimentLearning.
// seedsim watches a counted cell and builds no testbed of its own.
func ruleOneWayToRun(r *report) {
	for _, u := range r.w.prod() {
		root := u.pkg.Path() == module
		if !root && u.pkg.Path() != modPath("cmd/seedsim") {
			continue
		}
		for id, obj := range u.info.Uses {
			if _, ok := obj.(*types.Func); !ok || obj.Pkg() == nil || obj.Pkg().Path() != module {
				continue
			}
			s := r.w.site(u, id.Pos())
			if s.test {
				continue
			}
			where := declName(s.decl(id.Pos()))
			switch {
			case !root:
				for _, name := range []string{"New", "Testbed.NewDevice", "Testbed.RunUntil"} {
					recv, method, ok := strings.Cut(name, ".")
					if !ok {
						recv, method = "", name
					}
					if isObj(obj, ".", recv, method) {
						r.add(id.Pos(), "seedsim calls seed.%s: it watches a counted cell and builds no testbed", name)
					}
				}
			case isObj(obj, ".", "", "NewProto") || isObj(obj, ".", "", "NewProtoMap"):
				if s.base != "proto.go" {
					r.add(id.Pos(), "%s outside proto.go: every prototype is protos' for a steady value", obj.Name())
				}
			case isObj(obj, ".", "Proto", "Cell") || isObj(obj, ".", "Proto", "cell"):
				if where != "trial.run" && (obj.Name() == "Cell" || where != "Proto.Cell") {
					r.add(id.Pos(), "(*Proto).%s called by %s: trial.run is the one way to run a cell", obj.Name(), where)
				}
			case isObj(obj, ".", "Testbed", "RunUntil"):
				r.add(id.Pos(), "(*Testbed).RunUntil called by %s: waits are subscribed (Testbed.await)", where)
			case isObj(obj, ".", "", "New") || isObj(obj, ".", "Testbed", "NewDevice"):
				if s.base != "proto.go" && where != "seedResetTrial" && where != "ExperimentLearning" {
					r.add(id.Pos(), "%s called by %s: a cell's testbed and device come from its steady state", obj.Name(), where)
				}
			}
		}
	}
}

// observers are the four interfaces a layer looks for on its kernel's one
// observer, each with its one method.
var observers = [][3]string{
	{"internal/sched", "TransitionObserver", "Transition"},
	{"internal/modem", "NASObserver", "NAS"},
	{"internal/modem", "APDUObserver", "APDU"},
	{"internal/core", "DecisionTracer", "Decision"},
}

// observerMethods maps each observer method's name to its signature key.
func observerMethods(w *world) map[string]string {
	out := map[string]string{}
	for _, u := range w.prod() {
		for _, o := range observers {
			if u.pkg.Path() != modPath(o[0]) {
				continue
			}
			if tn, ok := u.pkg.Scope().Lookup(o[1]).(*types.TypeName); ok {
				m := tn.Type().Underlying().(*types.Interface).Method(0)
				out[m.Name()] = sigKey(m.Type().(*types.Signature))
			}
		}
	}
	return out
}

// holdsObserver reports whether t is an observer interface type, or a
// pointer, slice, array, map or channel of one.
func holdsObserver(t types.Type) bool {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		for _, o := range observers {
			if isNamed(u, o[0], o[1]) {
				return true
			}
		}
	case *types.Pointer:
		return holdsObserver(u.Elem())
	case *types.Slice:
		return holdsObserver(u.Elem())
	case *types.Array:
		return holdsObserver(u.Elem())
	case *types.Map:
		return holdsObserver(u.Key()) || holdsObserver(u.Elem())
	case *types.Chan:
		return holdsObserver(u.Elem())
	}
	return false
}

// Rule one-observer: a run has one attach point, Kernel.Observe. Only
// sched.Kernel stores an observer: no other struct field has an observer
// interface type (but seed.Instrument.Tracer, which observeCell hands to
// Testbed.Observe), and no func-typed field has an observer method's
// signature, with or without its leading IMSI, as the retired hook fields
// had (the kernel's Watcher, the card's APDU tap, the modem's OnNAS).
func ruleOneObserver(r *report) {
	methods := observerMethods(r.w)
	for _, u := range r.w.prod() {
		for id, obj := range u.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || r.w.site(u, id.Pos()).test {
				continue
			}
			if holdsObserver(v.Type()) && !isField(v, "internal/sched", "Kernel", v.Name()) && !isField(v, ".", "Instrument", "Tracer") {
				r.add(id.Pos(), "field %s of type %s stores an observer: sched.Kernel holds the run's one observer",
					v.Name(), types.TypeString(v.Type(), pkgName))
			}
			if sig, ok := v.Type().Underlying().(*types.Signature); ok {
				key := sigKey(sig)
				for name, method := range methods {
					if key == method || "(string,"+key[1:] == method {
						r.add(id.Pos(), "func field %s has the signature of the observer method %s: observers attach with Kernel.Observe", v.Name(), name)
					}
				}
			}
		}
	}
}

// Rule boot-captures: a boot function — one passed to NewProto or
// NewProtoMap, a function such an argument names, or steady.boot — runs once
// per prototype and its state is restored by snapshot, so no func literal in
// it refers to a local that is assigned after its declaration: the snapshot
// does not rewind a captured variable.
func ruleBootCaptures(r *report) {
	for _, u := range r.w.prod() {
		type boot struct {
			node  ast.Node
			outer ast.Decl
		}
		var boots []boot
		seen := map[ast.Node]bool{}
		decls := map[types.Object]*ast.FuncDecl{}
		for _, f := range u.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					obj := u.info.Defs[fd.Name]
					decls[obj] = fd
					if isObj(obj, ".", "steady", "boot") {
						seen[fd] = true
						boots = append(boots, boot{fd, fd})
					}
				}
			}
		}
		for id, obj := range u.info.Uses {
			if !isObj(obj, ".", "", "NewProto") && !isObj(obj, ".", "", "NewProtoMap") {
				continue
			}
			s := r.w.site(u, id.Pos())
			decl := s.decl(id.Pos())
			if s.test || decl == nil {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || callee(u.info, call) != obj {
					return true
				}
				for _, arg := range call.Args {
					ast.Inspect(arg, func(n ast.Node) bool {
						var node ast.Node
						switch n := n.(type) {
						case *ast.FuncLit:
							node = n
						case *ast.Ident:
							if fn, ok := u.info.Uses[n].(*types.Func); ok && decls[fn.Origin()] != nil {
								node = decls[fn.Origin()]
							}
						}
						if node != nil && !seen[node] {
							seen[node] = true
							outer := decl
							if fd, ok := node.(*ast.FuncDecl); ok {
								outer = fd
							}
							boots = append(boots, boot{node, outer})
						}
						return true
					})
				}
				return true
			})
		}
		for _, b := range boots {
			assigned := assignedLocals(u.info, b.outer)
			ast.Inspect(b.node, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				reported := map[types.Object]bool{}
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					v, _ := u.info.Uses[id].(*types.Var)
					if v == nil || !assigned[v] || reported[v] || v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
						return true
					}
					reported[v] = true
					r.add(id.Pos(), "func literal in a boot function captures %s, which is assigned after its declaration", v.Name())
					return true
				})
				return true
			})
		}
	}
}

// assignedLocals returns the function-local vars of decl that a statement
// assigns after their declaration.
func assignedLocals(info *types.Info, decl ast.Decl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
				out[v] = true
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key)
				if n.Value != nil {
					mark(n.Value)
				}
			}
		}
		return true
	})
	return out
}

// Rule observer-keeps: an observer reads what it is lent during the call.
// In a method implementing an observer interface, a parameter whose type
// refers to memory beyond itself (nas.Message, sim.Command, sim.Response),
// or any part of it reached by field, index or slice, is never assigned,
// appended or placed in a composite literal; passing it to a call is the
// copy (nas.Marshal(msg), cmd.AppendBytes(nil)).
func ruleObserverKeeps(r *report) {
	methods := observerMethods(r.w)
	for _, u := range r.w.prod() {
		info := u.info
		for id, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil || methods[fn.Name()] == "" || methods[fn.Name()] != sigKey(sig) {
				continue
			}
			s := r.w.site(u, id.Pos())
			fd, _ := s.decl(id.Pos()).(*ast.FuncDecl)
			if s.test || fd == nil || fd.Body == nil {
				continue
			}
			lent := map[*types.Var]bool{}
			for i := 0; i < sig.Params().Len(); i++ {
				if p := sig.Params().At(i); holdsRef(p.Type()) {
					lent[p] = true
				}
			}
			kept := func(e ast.Expr, how string) {
				if v := lentRoot(info, e); v != nil && lent[v] && holdsRef(info.Types[e].Type) {
					r.add(e.Pos(), "%s %s what it is lent in %s", declName(fd), how, v.Name())
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Rhs {
						kept(e, "assigns")
					}
				case *ast.ValueSpec:
					for _, e := range n.Values {
						kept(e, "assigns")
					}
				case *ast.CallExpr:
					if isBuiltin(info, n, "append") {
						for _, e := range n.Args {
							kept(e, "appends")
						}
					}
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							kept(kv.Key, "stores")
							e = kv.Value
						}
						kept(e, "stores")
					}
				}
				return true
			})
		}
	}
}

// lentRoot returns the variable e is a part of, through fields, indexes,
// slices and dereferences; nil when e is anything else.
func lentRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s == nil || s.Kind() != types.FieldVal {
				return nil
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// Rule settable-fields: a setting or a hook no program sets is not one.
// Every exported field of a struct type named …Config, and every exported
// field of function type (a named one included) of any struct type, in the
// module's non-test code has a writer in non-test code. A write is the
// field's key in a composite literal of its type (every field, for an
// unkeyed literal), an assignment, op-assignment or ++/-- to the field or
// through it, or its address taken (a flag bound to it). These do not
// count: a constant store in the field's own package's defaults (a function
// or method named withDefaults or Default… whose stored value reads no
// variable of its own), a func literal with an empty body stored in a hook,
// and a write inside an exported With…/On… function or method that no
// non-test code uses, directly or through another such installer. A func
// literal whose body only forwards — it calls func-typed fields, each
// call a statement of its own or under a nil check of a field, and its
// arguments call nothing — counts once one of the fields it calls has a
// writer (a fixpoint, so a chain of forwarders resolves). Tests do
// not count: a field only tests set is a constant the tests shrink, a hook
// the tests could read from a counter or an announced transition, or an
// unexported seam of its package. settableAllowed lists the exceptions,
// each with its reason, and an entry whose field gained a writer is
// reported too.
func ruleSettableFields(r *report) {
	type field struct {
		key  string // import path.Type.Field
		hook bool
	}
	// Fields and functions are keyed by the position of their declaration:
	// a fixture checked alongside its package's files declares that
	// package's objects again, and the other units refer to the first ones.
	fields := map[token.Pos]field{}
	written := map[token.Pos]bool{}
	for _, u := range r.w.prod() {
		for _, f := range u.files {
			if r.w.site(u, f.Pos()).test {
				continue
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					obj := u.info.Defs[ts.Name]
					st, ok := obj.Type().Underlying().(*types.Struct)
					if !ok || ts.Assign.IsValid() {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						v := st.Field(i)
						_, hook := v.Type().Underlying().(*types.Signature)
						if v.Exported() && (hook || strings.HasSuffix(ts.Name.Name, "Config")) {
							fields[v.Pos()] = field{fmt.Sprintf("%s.%s.%s", obj.Pkg().Path(), obj.Name(), v.Name()), hook}
						}
					}
				}
			}
		}
	}
	// installed holds the fields each installer writes; uses holds the
	// functions each installer uses, and under NoPos those non-test code
	// outside any installer uses.
	installed := map[token.Pos][]token.Pos{}
	uses := map[token.Pos][]token.Pos{}
	// forwards holds the forwarding literals stored in fields, each with
	// the fields it calls and its installer (NoPos outside one).
	type forward struct {
		field, installer token.Pos
		callees          []token.Pos
	}
	var forwards []forward
	for _, u := range r.w.prod() {
		info := u.info
		for _, f := range u.files {
			if r.w.site(u, f.Pos()).test {
				continue
			}
			for _, decl := range f.Decls {
				name := ""
				installer := token.NoPos
				if fd, ok := decl.(*ast.FuncDecl); ok {
					name = fd.Name.Name
					if isInstaller(name) {
						installer = fd.Name.Pos()
					}
				}
				defaults := name == "withDefaults" || strings.HasPrefix(name, "Default")
				// write marks v written unless it is a constant store in its
				// own package's defaults or an empty func literal, or holds
				// it until its installer is known to be used or, for a
				// forwarding literal, until a field it calls is written;
				// value is nil when there is no one stored value to read.
				write := func(v *types.Var, value ast.Expr) {
					if defaults && value != nil && v.Pkg() == u.pkg && !readsLocal(info, value) {
						return
					}
					if lit, ok := value.(*ast.FuncLit); ok {
						if len(lit.Body.List) == 0 {
							return
						}
						if callees, ok := forwardedTo(info, lit.Body.List); ok {
							forwards = append(forwards, forward{v.Pos(), installer, callees})
							return
						}
					}
					if installer.IsValid() {
						installed[installer] = append(installed[installer], v.Pos())
					} else {
						written[v.Pos()] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok {
							uses[installer] = append(uses[installer], fn.Origin().Pos())
						}
					case *ast.CompositeLit:
						st, ok := info.Types[n].Type.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, e := range n.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									write(v, kv.Value)
								}
							} else {
								write(st.Field(i), e)
							}
						}
					case *ast.AssignStmt:
						if n.Tok == token.DEFINE {
							break
						}
						for i, lhs := range n.Lhs {
							var value ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								value = n.Rhs[i]
							}
							for _, v := range fieldsWritten(info, lhs) {
								write(v, value)
							}
						}
					case *ast.IncDecStmt:
						for _, v := range fieldsWritten(info, n.X) {
							write(v, nil)
						}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							for _, v := range fieldsWritten(info, n.X) {
								write(v, nil)
							}
						}
					}
					return true
				})
			}
		}
	}
	// An installer's writes count once a program reaches it.
	live := map[token.Pos]bool{}
	reach := uses[token.NoPos]
	for len(reach) > 0 {
		fn := reach[len(reach)-1]
		reach = reach[:len(reach)-1]
		if live[fn] {
			continue
		}
		live[fn] = true
		for _, v := range installed[fn] {
			written[v] = true
		}
		reach = append(reach, uses[fn]...)
	}
	// A forwarder counts once it is reached and a field it calls is written.
	for changed := true; changed; {
		changed = false
		for _, fw := range forwards {
			if written[fw.field] || fw.installer.IsValid() && !live[fw.installer] {
				continue
			}
			for _, c := range fw.callees {
				if written[c] {
					written[fw.field], changed = true, true
					break
				}
			}
		}
	}
	for pos, fd := range fields {
		reason, allowed := settableAllowed[fd.key]
		short := fd.key[strings.LastIndex(fd.key, "/")+1:]
		switch {
		case !written[pos] && !allowed && fd.hook:
			r.add(pos, "hook %s is set by no program, only by tests, an unused installer, an empty func or a forwarder to unset hooks: delete it", short)
		case !written[pos] && !allowed:
			r.add(pos, "%s is set by no program, only by tests, an unused installer or as a constant in its defaults: make it a constant", short)
		case written[pos] && allowed:
			r.add(pos, "%s is allow-listed (%s) but a program sets it: drop the entry", fd.key, reason)
		}
	}
}

// forwardedTo returns the func-typed fields that stmts call, and whether
// stmts do nothing else: each is a call of a func-typed field whose
// arguments call nothing, as a statement or returned, or an if without
// init or else whose condition compares a func-typed field with nil and
// whose body forwards too.
func forwardedTo(info *types.Info, stmts []ast.Stmt) ([]token.Pos, bool) {
	var callees []token.Pos
	hook := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			if _, ok := s.Obj().Type().Underlying().(*types.Signature); ok {
				return s.Obj().(*types.Var)
			}
		}
		return nil
	}
	call := func(e ast.Expr) bool {
		c, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return false
		}
		v := hook(c.Fun)
		if v == nil {
			return false
		}
		for _, arg := range c.Args {
			calls := false
			ast.Inspect(arg, func(n ast.Node) bool {
				_, isCall := n.(*ast.CallExpr)
				calls = calls || isCall
				return !calls
			})
			if calls {
				return false
			}
		}
		callees = append(callees, v.Pos())
		return true
	}
	for _, st := range stmts {
		switch st := st.(type) {
		case *ast.ExprStmt:
			if !call(st.X) {
				return nil, false
			}
		case *ast.ReturnStmt:
			for _, e := range st.Results {
				if !call(e) {
					return nil, false
				}
			}
		case *ast.IfStmt:
			cond, ok := st.Cond.(*ast.BinaryExpr)
			if !ok || st.Init != nil || st.Else != nil || cond.Op != token.NEQ ||
				hook(cond.X) == nil || !info.Types[cond.Y].IsNil() {
				return nil, false
			}
			inner, ok := forwardedTo(info, st.Body.List)
			if !ok {
				return nil, false
			}
			callees = append(callees, inner...)
		default:
			return nil, false
		}
	}
	return callees, true
}

// isInstaller reports whether name is an exported With… or On… function or
// method name: With or On followed by an upper-case letter.
func isInstaller(name string) bool {
	for _, prefix := range []string{"With", "On"} {
		if rest, ok := strings.CutPrefix(name, prefix); ok && rest != "" && 'A' <= rest[0] && rest[0] <= 'Z' {
			return true
		}
	}
	return false
}

// settableAllowed holds the …Config fields and hooks that no program sets
// and that stay, keyed import path.Type.Field, each with its reason.
var settableAllowed = map[string]string{
	module + "/internal/fleet.ServerConfig.Logf": "tests substitute a silent logger for log.Printf",
}

// fieldsWritten returns the fields an assignment to e writes: each field
// selected on the way from e to the variable it is part of, through
// indexes and dereferences.
func fieldsWritten(info *types.Info, e ast.Expr) []*types.Var {
	var out []*types.Var
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if s := info.Selections[x]; s != nil && s.Kind() == types.FieldVal {
				out = append(out, s.Obj().(*types.Var))
			}
			e = x.X
		default:
			return out
		}
	}
}

// readsLocal reports whether e reads a variable declared inside a
// function: a parameter, a result or a local.
func readsLocal(info *types.Info, e ast.Expr) bool {
	local := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
				local = true
			}
		}
		return !local
	})
	return local
}

// ---------------------------------------------------------------------------
// The tests
// ---------------------------------------------------------------------------

var (
	loadOnce  sync.Once
	loaded    *world
	loadedBy  *loader
	loadError error
)

func moduleWorld(t *testing.T) (*world, *loader) {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err == nil {
			_, err = os.Stat(filepath.Join(root, "go.mod"))
		}
		if err == nil {
			loaded, loadedBy, err = loadWorld(root)
		}
		loadError = err
	})
	if loadError != nil {
		t.Fatal(loadError)
	}
	return loaded, loadedBy
}

func run(w *world, rl rule) []violation {
	r := &report{w: w, rule: rl.name, seen: map[string]bool{}}
	rl.check(r)
	sort.Slice(r.out, func(i, j int) bool { return r.out[i].String() < r.out[j].String() })
	return r.out
}

// TestDesignRules checks every rule over the module, its tests included.
func TestDesignRules(t *testing.T) {
	w, _ := moduleWorld(t)
	for _, rl := range rules {
		for _, v := range run(w, rl) {
			t.Error(v)
		}
	}
}

// TestRulesRejectFixtures checks that each rule reports exactly the lines
// its fixture marks "// want", and that no other rule reports anything on
// the module with that fixture in it.
func TestRulesRejectFixtures(t *testing.T) {
	w, l := moduleWorld(t)
	for _, rl := range rules {
		t.Run(rl.name, func(t *testing.T) {
			t.Parallel()
			dir := filepath.Join(w.root, "internal", "archtest", "testdata", rl.name)
			fw, err := w.withFixture(l, dir, modPath(rl.fixture), rl.alongside)
			if err != nil {
				t.Fatal(err)
			}
			want := wantLines(t, w.root, dir)
			if len(want) == 0 {
				t.Fatalf("%s marks no line // want", dir)
			}
			for _, other := range rules {
				got := map[string]bool{}
				for _, v := range run(fw, other) {
					if other.name != rl.name {
						t.Errorf("rule %s reports on %s's fixture: %v", other.name, rl.name, v)
						continue
					}
					key := fmt.Sprintf("%s:%d", v.pos.Filename, v.pos.Line)
					if !want[key] {
						t.Errorf("unexpected: %v", v)
					}
					got[key] = true
					t.Log(v)
				}
				if other.name != rl.name {
					continue
				}
				for key := range want {
					if !got[key] {
						t.Errorf("%s: rule %s reported nothing", key, rl.name)
					}
				}
			}
		})
	}
}

// wantLines returns the module-relative file:line of every line of dir's Go
// files that carries a "// want" comment.
func wantLines(t *testing.T, root, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(root, name)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, "// want") {
				want[fmt.Sprintf("%s:%d", rel, i+1)] = true
			}
		}
	}
	return want
}

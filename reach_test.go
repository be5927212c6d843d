package flumen_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The reachability census: every function and method of the module, in
// every package, mains included, is reached from a main, an init, a
// package-level variable initialiser or a keep entry, or the test fails.
// Code that only tests call moves into a _test.go file of its package or
// goes with those tests.
//
// Every non-test package is type-checked from source; the standard library
// comes from export data. An edge is a use of a function inside a reached
// body (a generic function through its origin). A method is also reached
// when its receiver type is used in reached code and implements an
// interface type of a loaded or imported package that has a method of
// that name: that is how String, Error, ServeHTTP or MarshalJSON are
// called. Where Implements cannot judge (an interface literal, a generic
// type or interface), the name alone decides.

// keepEntry keeps functions that no main reaches. pkg is the package's
// directory relative to the module root ("." for the root package); name
// is a function, a type (its methods) or Type.Method. reason names the
// open ROADMAP item that needs it, or the other package whose tests call it.
type keepEntry struct {
	pkg, name, reason string
}

var keep = []keepEntry{
	{".", "Accelerator.EnableNoise", "ROADMAP item 4: the accuracy envelope sweeps noise"},
	{".", "Accelerator.DisableNoise", "ROADMAP item 4: the accuracy envelope sweeps noise"},
	{".", "Accelerator.InjectFaults", "ROADMAP item 4: the accuracy envelope sweeps drift"},
	{"internal/mat", "BlockGrid", "workload's blur tests call it"},
	{"internal/mat", "BlockMatVec", "Eq. 3's reference: photonic's and workload's tests hold block products to it"},
	{"internal/mat", "Dense.Clone", "photonic's tests copy matrices with it"},
	{"internal/mat", "Dense.Col", "photonic's tests read plan outputs column by column"},
	{"internal/mat", "Dense.IsUnitary", "photonic's and workload's tests call it"},
	{"internal/mat", "EqualApprox", "photonic's and workload's tests call it"},
	{"internal/mat", "RandomDense", "the root package's and photonic's tests draw operands with it"},
	{"internal/mat", "RandomUnitary", "photonic's and the root package's tests draw Haar unitaries with it"},
	{"internal/mat", "Scale", "the root package's and photonic's tests call it"},
	{"internal/mat", "SpectralNorm", "the root package's and photonic's tests call it"},
	{"internal/mat", "VecMaxAbsDiff", "photonic's and workload's tests call it"},
	{"internal/energy", "Params.ElecMACsPJ", "ROADMAP 1C: fabric_mixed reports pJ per stolen MAC beside it"},
	{"internal/energy", "Params.FlumenBatchTimeNS", "ROADMAP 1C: the photonic time beside ElecMACsPJ's energy"},
	{"internal/noc", "MZIMNet.SetLookahead", "ROADMAP item 16: TestMZIMMeetsHeadOfLineBound sets the window"},
	{"internal/photonic", "FaultInjector.SetDriftSigma", "ROADMAP item 4: the accuracy envelope sweeps drift"},
	{"internal/photonic", "Mesh", "ROADMAP item 19: the Fig. 5/6 device model, the NoP's oracle; its path-length test routes through it"},
	{"internal/photonic", "FlumenMesh", "ROADMAP item 19: the Fig. 5/6 device model, the NoP's oracle"},
	{"internal/photonic", "NewMesh", "ROADMAP item 19: builds the Fig. 5 mesh"},
	{"internal/photonic", "NewFlumenMesh", "ROADMAP item 19: builds the Fig. 6 fabric"},
	{"internal/photonic", "Partition", "ROADMAP item 19: a compute partition beside routed traffic (Sec 3.3)"},
	{"internal/workload", "ImageBlur.RandomImage", "the root package's integration tests draw the image with it; ROADMAP item 13's blur needs it"},
	{"internal/workload", "ImageBlur.Reference", "the root package's integration tests hold blur to it; ROADMAP item 13's blur needs it"},
	{"internal/workload", "ImageBlur.ToeplitzOperator", "the root package's integration tests run blur through it"},
	{"internal/workload", "ImageBlur.ToeplitzWindow", "the root package's integration tests run blur through it"},
	{"internal/workload", "MZIMJob.FabricMACs", "the root package's invariants tests conserve work with it"},
	{"internal/workload", "JPEG", "ROADMAP item 13: the kernel's real answer"},
	{"internal/workload", "ResNetConv3", "ROADMAP item 13: the kernel's real answer"},
	{"internal/workload", "Rotation3D", "ROADMAP item 13: the kernel's real answer"},
	{"internal/workload", "VGG16FC", "ROADMAP item 13: the kernel's real answer"},
}

func TestReachabilityCensus(t *testing.T) {
	c, err := loadCensus(".")
	if err != nil {
		t.Fatal(err)
	}
	res := c.run(keep)
	for _, f := range res.unreached {
		t.Errorf("%s %s", c.position(f), f.name())
	}
	for _, k := range res.unneeded {
		t.Errorf("keep entry %s %s: %s", k.pkg, k.name, k.why)
	}
	if t.Failed() {
		t.Log("Move each unreached function into a _test.go file of its package, delete it with the tests that only exercise it, or add a keep entry in reach_test.go that names the open ROADMAP item or the other package's tests that need it.")
	}
	t.Logf("%d functions in %d packages; %d kept", len(c.funcs), len(c.pkgs), res.kept)

	// A reason names an item ROADMAP.md still lists as open, or tests.
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	item := regexp.MustCompile(`^ROADMAP (?:item )?(\w+)`)
	for _, k := range keep {
		m := item.FindStringSubmatch(k.reason)
		switch {
		case m != nil:
			if !regexp.MustCompile(`(?m)^(### |- \*\*)` + m[1] + `[. ]`).Match(roadmap) {
				t.Errorf("keep entry %s %s names ROADMAP item %s, which ROADMAP.md does not list as open", k.pkg, k.name, m[1])
			}
		case !strings.Contains(k.reason, "tests"):
			t.Errorf("keep entry %s %s names neither an open ROADMAP item nor another package's tests: %q", k.pkg, k.name, k.reason)
		}
	}
}

// censusPkg is one non-test package: its parsed files and, once checked,
// its types.
type censusPkg struct {
	dir, path string
	files     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
}

// censusFunc is one declared function or method.
type censusFunc struct {
	pkg  *censusPkg
	decl *ast.FuncDecl
	obj  *types.Func
}

// name is pkg.Func or pkg.Type.Method.
func (f *censusFunc) name() string {
	n := f.pkg.types.Name() + "."
	if recv := receiverType(f.obj); recv != nil {
		n += recv.Obj().Name() + "."
	}
	return n + f.obj.Name()
}

type census struct {
	fset   *token.FileSet
	pkgs   []*censusPkg // in directory order
	byPath map[string]*censusPkg
	std    types.Importer
	funcs  []*censusFunc // in source order
	byObj  map[*types.Func]*censusFunc
	// methods lists the declared methods of each named type.
	methods map[*types.TypeName][]*censusFunc
	// ifaces lists, by method name, every non-generic named interface type
	// of a loaded or imported package, and the predeclared error.
	ifaces map[string][]*types.Interface
	// byName holds the method names of interface types that Implements
	// cannot judge: interface literals in loaded code and generic
	// interfaces. A method with such a name is reached on its name alone.
	byName map[string]bool
}

// loadCensus parses and type-checks every non-test package of the module
// rooted at root. It skips testdata and directories whose names start with
// "." or "_".
func loadCensus(root string) (*census, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		files[filepath.ToSlash(dir)] = append(files[filepath.ToSlash(dir)], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newCensus(fset, modPath, files)
}

// newCensus type-checks the packages in files, keyed by directory relative
// to the root of module modPath.
func newCensus(fset *token.FileSet, modPath string, files map[string][]*ast.File) (*census, error) {
	c := &census{
		fset:    fset,
		byPath:  map[string]*censusPkg{},
		std:     importer.ForCompiler(fset, "gc", nil),
		byObj:   map[*types.Func]*censusFunc{},
		methods: map[*types.TypeName][]*censusFunc{},
		ifaces:  map[string][]*types.Interface{},
		byName:  map[string]bool{},
	}
	c.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for dir, fs := range files {
		p := &censusPkg{dir: dir, path: modPath, files: fs}
		if dir != "." {
			p.path += "/" + dir
		}
		c.pkgs = append(c.pkgs, p)
		c.byPath[p.path] = p
	}
	slices.SortFunc(c.pkgs, func(a, b *censusPkg) int { return strings.Compare(a.dir, b.dir) })
	for _, p := range c.pkgs {
		if err := c.check(p); err != nil {
			return nil, err
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range c.pkgs {
		c.collectInterfaces(p.types, seen)
		for _, f := range p.files {
			declared := map[ast.Expr]bool{} // package-level named types
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, s := range gd.Specs {
						declared[s.(*ast.TypeSpec).Type] = true
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok && !declared[it] {
					for _, m := range it.Methods.List {
						for _, id := range m.Names {
							c.byName[id.Name] = true
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := p.info.Defs[fd.Name].(*types.Func)
				if obj == nil { // init
					continue
				}
				fn := &censusFunc{pkg: p, decl: fd, obj: obj}
				c.funcs = append(c.funcs, fn)
				c.byObj[obj] = fn
				if recv := receiverType(obj); recv != nil {
					c.methods[recv.Obj()] = append(c.methods[recv.Obj()], fn)
				}
			}
		}
	}
	return c, nil
}

// Import type-checks a module package from source and takes any other from
// the compiler's export data.
func (c *census) Import(path string) (*types.Package, error) {
	p := c.byPath[path]
	if p == nil {
		return c.std.Import(path)
	}
	if err := c.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (c *census) check(p *censusPkg) error {
	if p.types != nil {
		return nil
	}
	if p.checking {
		return fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(p.path, c.fset, p.files, p.info)
	if err != nil {
		return err
	}
	p.types = pkg
	return nil
}

// collectInterfaces adds every interface type declared in pkg or in a
// package it imports, transitively.
func (c *census) collectInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		it, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			for i := 0; i < it.NumMethods(); i++ {
				c.byName[it.Method(i).Name()] = true
			}
			continue
		}
		c.addInterface(it)
	}
	for _, imp := range pkg.Imports() {
		c.collectInterfaces(imp, seen)
	}
}

func (c *census) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// dispatched reports whether a method called name of typ can be called
// through an interface: typ implements an interface that has the method,
// or the name belongs to an interface Implements cannot judge. typ nil
// stands for a generic type, judged by name.
func (c *census) dispatched(typ types.Type, name string) bool {
	if c.byName[name] {
		return true
	}
	for _, it := range c.ifaces[name] {
		if typ == nil || types.Implements(typ, it) {
			return true
		}
	}
	return false
}

// receiverType returns the named type (its origin) that declares method f,
// or nil when f is not a method.
func receiverType(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

func (c *census) position(f *censusFunc) string {
	pos := c.fset.Position(f.decl.Pos())
	return fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)
}

// reach is one reachability walk.
type reach struct {
	c     *census
	funcs map[*types.Func]bool
	types map[types.Type]bool
	queue []*censusFunc
}

// walk reaches everything the roots reach: main of every main package,
// every init, every package-level variable initialiser, and the extra
// functions given.
func (c *census) walk(extra []*censusFunc) map[*types.Func]bool {
	r := &reach{c: c, funcs: map[*types.Func]bool{}, types: map[types.Type]bool{}}
	for _, p := range c.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						r.body(p, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.body(p, d)
					}
				}
			}
		}
	}
	for _, fn := range extra {
		r.fn(fn.obj)
	}
	for len(r.queue) > 0 {
		fn := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.body(fn.pkg, fn.decl)
	}
	return r.funcs
}

// fn reaches a function; its body joins the queue.
func (r *reach) fn(f *types.Func) {
	f = f.Origin()
	if r.funcs[f] {
		return
	}
	r.funcs[f] = true
	r.useType(f.Type())
	if fn := r.c.byObj[f]; fn != nil {
		r.queue = append(r.queue, fn)
	}
}

// body reaches every function that node uses and every type it names.
func (r *reach) body(p *censusPkg, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.info.Uses[id]
		if obj == nil {
			obj = p.info.Defs[id]
		}
		switch obj := obj.(type) {
		case nil:
		case *types.Func:
			r.fn(obj)
		default:
			r.useType(obj.Type())
		}
		return true
	})
}

// useType marks t, and every type t is built from, as used in reached
// code; a used named type of the module reaches the methods it can be
// called through an interface by.
func (r *reach) useType(t types.Type) {
	if t == nil || r.types[t] {
		return
	}
	r.types[t] = true
	switch t := t.(type) {
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.useType(t.TypeArgs().At(i))
		}
		if o := t.Origin(); o != t {
			r.useType(o)
			return
		}
		if pkg := t.Obj().Pkg(); pkg == nil || r.c.byPath[pkg.Path()] == nil {
			return // a standard library type
		}
		if t.TypeParams().Len() > 0 {
			// Implements is unspecified for a generic type.
			for _, m := range r.c.methods[t.Obj()] {
				if r.c.dispatched(nil, m.obj.Name()) {
					r.fn(m.obj)
				}
			}
		} else {
			// *T's method set holds T's and the promoted methods.
			ptr := types.NewPointer(t)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				if m := ms.At(i).Obj().(*types.Func); r.c.dispatched(ptr, m.Name()) {
					r.fn(m)
				}
			}
		}
		r.useType(t.Underlying())
	case *types.Pointer:
		r.useType(t.Elem())
	case *types.Slice:
		r.useType(t.Elem())
	case *types.Array:
		r.useType(t.Elem())
	case *types.Chan:
		r.useType(t.Elem())
	case *types.Map:
		r.useType(t.Key())
		r.useType(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.useType(t.Field(i).Type())
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				r.useType(tup.At(i).Type())
			}
		}
	}
}

// covers returns the functions a keep entry names, in source order.
func (c *census) covers(k keepEntry) []*censusFunc {
	typ, method, isMethod := strings.Cut(k.name, ".")
	var out []*censusFunc
	for _, fn := range c.funcs {
		if fn.pkg.dir != k.pkg {
			continue
		}
		recv := receiverType(fn.obj)
		switch {
		case isMethod:
			if recv != nil && recv.Obj().Name() == typ && fn.obj.Name() == method {
				out = append(out, fn)
			}
		case recv == nil:
			if fn.obj.Name() == k.name {
				out = append(out, fn)
			}
		case recv.Obj().Name() == k.name:
			out = append(out, fn)
		}
	}
	return out
}

// censusResult is what a census run finds.
type censusResult struct {
	unreached []*censusFunc
	unneeded  []unneededKeep
	kept      int
}

type unneededKeep struct {
	keepEntry
	why string
}

// run walks from the roots alone, to find which keep entries are needed,
// and then from the roots and every keep entry, to find what stays
// unreached.
func (c *census) run(keep []keepEntry) censusResult {
	var res censusResult
	bare := c.walk(nil)
	var extra []*censusFunc
	for _, k := range keep {
		cov := c.covers(k)
		needed := false
		for _, fn := range cov {
			if !bare[fn.obj] {
				needed = true
				res.kept++
			}
		}
		switch {
		case len(cov) == 0:
			res.unneeded = append(res.unneeded, unneededKeep{k, "names no function; drop the entry"})
		case !needed:
			res.unneeded = append(res.unneeded, unneededKeep{k, "everything it names is reached without it; drop the entry"})
		}
		extra = append(extra, cov...)
	}
	reached := c.walk(extra)
	for _, fn := range c.funcs {
		if !reached[fn.obj] {
			res.unreached = append(res.unreached, fn)
		}
	}
	return res
}

// TestReachabilityCensusRules holds the census to its rules on a module
// parsed from strings.
func TestReachabilityCensusRules(t *testing.T) {
	sources := map[string]string{
		"lib": `package lib

type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

// Area is reached only through a Shape value.
func (s Square) Area() float64 { return s.Side * s.Side }

// Map is reached through an instantiation.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

type Box[T any] struct{ v T }

// Get is reached through a method of an instantiated type.
func (b Box[T]) Get() T { return b.v }

func Reached() {}

// KeptOnly is reached only from its keep entry, and helper through it.
func KeptOnly() { helper() }

func helper() {}

func Unused() {}

func unused() {}
`,
		"cmd/app": `package main

import "m/lib"

var shapes = []lib.Shape{lib.Square{Side: 2}}

func double(x int) int { return 2 * x }

func main() {
	for _, s := range shapes {
		_ = s.Area()
	}
	_ = lib.Map([]int{1}, double)
	_ = lib.Box[int]{}.Get()
	lib.Reached()
}
`,
	}
	c := censusOf(t, sources)
	names := func(fns []*censusFunc) []string {
		var out []string
		for _, fn := range fns {
			out = append(out, fn.name())
		}
		return out
	}

	res := c.run([]keepEntry{{"lib", "KeptOnly", "test"}})
	if got, want := names(res.unreached), []string{"lib.Unused", "lib.unused"}; !slices.Equal(got, want) {
		t.Errorf("unreached %q, want %q", got, want)
	}
	if len(res.unneeded) != 0 {
		t.Errorf("needed keep entry reported: %v", res.unneeded)
	}

	res = c.run([]keepEntry{{"lib", "KeptOnly", "test"}, {"lib", "Reached", "test"}, {"lib", "Gone", "test"}, {"lib", "Square", "test"}})
	var unneeded []string
	for _, k := range res.unneeded {
		unneeded = append(unneeded, k.name)
	}
	if want := []string{"Reached", "Gone", "Square"}; !slices.Equal(unneeded, want) {
		t.Errorf("unneeded keep entries %q, want %q", unneeded, want)
	}

	// A method named like an interface's, on a type that does not
	// implement the interface, cannot be called through it.
	c = censusOf(t, map[string]string{"cmd/app": `package main

type Sizer interface {
	Size() int
	Name() string
}

type box struct{}

func (box) Size() int { return 1 }

var _ Sizer

func main() { _ = box{} }
`})
	if got, want := names(c.run(nil).unreached), []string{"main.box.Size"}; !slices.Equal(got, want) {
		t.Errorf("unreached %q, want %q", got, want)
	}
}

// censusOf type-checks a module "m" whose packages are given as one source
// file each, keyed by directory.
func censusOf(t *testing.T, sources map[string]string) *census {
	t.Helper()
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for dir, src := range sources {
		f, err := parser.ParseFile(fset, dir+"/x.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files[dir] = []*ast.File{f}
	}
	c, err := newCensus(fset, "m", files)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

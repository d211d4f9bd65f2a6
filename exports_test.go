//go:build !race

// The export audit type-checks the whole module and bench/, so it is kept
// out of -race runs, where the type-check alone takes several times longer
// and checks nothing the plain run does not.

package venn

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// clientAPIMethods are the methods of client.API. README documents them as
// the SDK, on client.API and on both of its implementations.
var clientAPIMethods = []string{
	"RegisterJob", "JobStatus", "Jobs", "WaitForJob", "CheckInBatch",
	"ReportBatch", "Metrics", "Ping", "Close",
}

// publicSurface lists the exported names outside package venn that README
// documents as public. One part is the client SDK: client.New with
// WithTopology, the API methods on both clients, ErrCode and the client
// error types. The other is the methods README documents on the types
// package venn re-exports by alias (Result, Job, Workload, Time, ...):
// those types are public through their fields and these methods only, and
// their other methods are held to the same rule as any internal name.
// Listed names need no caller inside the module. Package venn's own
// declarations are public as a whole.
var publicSurface = func() map[string]bool {
	s := map[string]bool{
		"sim.Result.CompletionRate": true,
		"client.API":                true,
		"client.New":                true,
		"client.WithTopology":       true,
		"client.ErrCode":            true,
		"client.APIError":           true,
		"client.StreamError":        true,
		"client.NotSentError":       true,
	}
	for _, m := range clientAPIMethods {
		s["client.API."+m] = true
		s["client.Client."+m] = true
		s["client.StreamClient."+m] = true
	}
	return s
}()

// benchOnly lists the exported names whose only caller is bench/, the
// repository's benchmark. bench/ changes only in a benchmark change, so
// these stay until one stops calling them. The list is exact: an entry
// that gains a caller outside bench/, or loses its bench/ caller, fails.
var benchOnly = map[string]bool{
	"server.Service.CheckInBatchLocal":                 true,
	"server.Service.ReportBatchLocal":                  true,
	"cluster.Cluster.CheckInBatchRaw":                  true,
	"cluster.Cluster.ReportBatch":                      true,
	"server.CheckInBatchRequest.UnmarshalBinaryBounds": true,
	"server.Manager.StatsSnapshot":                     true,
	"server.Manager.ReportBatch":                       true,
	"client.WithHTTPClient":                            true,
	"server.RouteCheckInBatch":                         true,
	"stats.RNG.Int63":                                  true,
	"stats.RNG.Perm":                                   true,
}

// testHooks lists the exported names that only another package's tests
// call, each with the test that needs it ("dir TestName"). A helper that
// only its own package's tests need belongs in that package's
// export_test.go instead.
var testHooks = map[string]string{
	"client.StreamClient.InjectTopologyForTest": "internal/cluster TestStaleTopologyCorrection",
	"client.StreamClient.TopologyEpoch":         "internal/cluster TestStaleTopologyCorrection",
	"cluster.Cluster.Ring":                      "internal/server TestRetainedIDsOutliveTheirFrames",
	"core.PlanSnapshot.Epoch":                   "internal/server TestPlanRefreshAccountingUnderStandingQueue",
	"sched.Baseline.QueueLen":                   "internal/eval TestFIFOMatchForwardsMatching",
}

// exemptMethods are called through interfaces the standard library
// declares and calls by convention.
var exemptMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"MarshalText": true, "UnmarshalText": true, "AppendText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "AppendBinary": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryExportHasACaller fails for every exported func, type, var,
// const and method outside the public surface that no non-test code uses.
// A use in an Example function counts. A method counts as used when an
// interface method it implements is called, or when a standard-library
// function or field that takes that interface is used.
func TestEveryExportHasACaller(t *testing.T) {
	a, err := loadAudit(".")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for _, e := range a.exported {
		u := a.uses[e.obj]
		switch {
		case publicSurface[e.key]:
		case benchOnly[e.key]:
			if u.main > 0 {
				bad = append(bad, fmt.Sprintf("%s %s: on the bench-only list but has a caller outside bench/; drop the entry", e.pos, e.key))
			} else if u.bench == 0 {
				bad = append(bad, fmt.Sprintf("%s %s: on the bench-only list but bench/ no longer calls it; delete it and the entry", e.pos, e.key))
			}
		case testHooks[e.key] != "":
			if u.main > 0 || u.bench > 0 {
				bad = append(bad, fmt.Sprintf("%s %s: a test hook with a non-test caller; drop the entry", e.pos, e.key))
			}
		case u.main == 0 && u.bench > 0:
			bad = append(bad, fmt.Sprintf("%s %s: only bench/ calls it", e.pos, e.key))
		case u.main == 0:
			bad = append(bad, fmt.Sprintf("%s %s: no caller outside tests", e.pos, e.key))
		}
	}
	for _, list := range []map[string]bool{publicSurface, benchOnly} {
		for k := range list {
			if !a.keys[k] {
				bad = append(bad, fmt.Sprintf("%s: listed but not declared", k))
			}
		}
	}
	if len(testHooks) > 5 {
		bad = append(bad, fmt.Sprintf("%d test hooks; at most 5", len(testHooks)))
	}
	for k, where := range testHooks {
		if !a.keys[k] {
			bad = append(bad, fmt.Sprintf("%s: listed but not declared", k))
		}
		dir, test, _ := strings.Cut(where, " ")
		if err := testMentions(dir, test, k[strings.LastIndexByte(k, '.')+1:]); err != nil {
			bad = append(bad, fmt.Sprintf("%s: %v", k, err))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// exportedObj is one exported object declared in the module.
type exportedObj struct {
	obj types.Object
	key string // pkg.Name or pkg.Type.Method, pkg the last import-path element
	pos token.Position
}

// useCount counts an object's uses in non-test code outside bench/ (main)
// and in bench/.
type useCount struct{ main, bench int }

// audit is the type-checked module and bench/ with every use counted.
type audit struct {
	exported []exportedObj
	keys     map[string]bool
	uses     map[types.Object]*useCount
}

// srcPkg is one directory's non-test Go files.
type srcPkg struct {
	path     string
	dir      string
	bench    bool
	example  bool // an external test package's Example functions
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	checking bool
}

// loader type-checks srcPkgs on demand and std packages from gc export data.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*srcPkg
	std  types.Importer
}

func (l *loader) Import(p string) (*types.Package, error) {
	if sp, ok := l.pkgs[p]; ok {
		return l.check(sp)
	}
	return l.std.Import(p)
}

func (l *loader) check(sp *srcPkg) (*types.Package, error) {
	if sp.pkg != nil {
		return sp.pkg, nil
	}
	if sp.checking {
		return nil, fmt.Errorf("import cycle through %s", sp.path)
	}
	sp.checking = true
	sp.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(sp.path, l.fset, sp.files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", sp.dir, err)
	}
	sp.pkg = pkg
	return pkg, nil
}

// loadAudit parses and type-checks every package under root: the module's
// non-test files, bench/'s and the Example files of external test packages.
func loadAudit(root string) (*audit, error) {
	fset := token.NewFileSet()
	l := &loader{fset: fset, pkgs: map[string]*srcPkg{}}
	var order []*srcPkg
	std := map[string]bool{}
	addStd := func(imports []string) {
		for _, imp := range imports {
			if !inModule(imp) && imp != "unsafe" && imp != "C" {
				std[imp] = true
			}
		}
	}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel := filepath.ToSlash(dir)
		ip := path.Join("venn", rel)
		sp := &srcPkg{path: ip, dir: rel, bench: rel == "bench" || strings.HasPrefix(rel, "bench/")}
		for _, f := range bp.GoFiles {
			af, err := parser.ParseFile(fset, filepath.Join(dir, f), nil, 0)
			if err != nil {
				return err
			}
			sp.files = append(sp.files, af)
		}
		l.pkgs[ip] = sp
		order = append(order, sp)
		addStd(bp.Imports)
		if ex, err := exampleFiles(fset, dir, bp.XTestGoFiles); err != nil {
			return err
		} else if len(ex) > 0 {
			order = append(order, &srcPkg{path: ip + "_test", dir: rel, example: true, files: ex})
			addStd(bp.XTestImports)
		}
		if len(bp.TestGoFiles) > 0 {
			if ex, err := exampleFiles(fset, dir, bp.TestGoFiles); err != nil {
				return err
			} else if len(ex) > 0 {
				return fmt.Errorf("%s: Example functions must be in an external test package", rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(std)
	if err != nil {
		return nil, err
	}
	l.std = importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
		f, ok := exports[p]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", p)
		}
		return os.Open(f)
	})
	for _, sp := range order {
		if _, err := l.check(sp); err != nil {
			return nil, err
		}
	}
	return tally(fset, order), nil
}

// exampleFiles parses the files that declare Example functions.
func exampleFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, n := range names {
		af, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, 0)
		if err != nil {
			return nil, err
		}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				out = append(out, af)
				break
			}
		}
	}
	return out, nil
}

// inModule reports whether import path p is in the module (bench/ included).
func inModule(p string) bool { return p == "venn" || strings.HasPrefix(p, "venn/") }

// stdExports maps each standard-library import to its gc export data,
// built into the build cache by one go list call.
func stdExports(std map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	m := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, f, _ := strings.Cut(line, "=")
		m[p] = f
	}
	return m, nil
}

// ifaceUse is an interface's method called by name, with the origin of
// the call.
type ifaceUse struct {
	iface *types.Interface
	name  string
	bench bool
}

// tally counts every use and lists the exported objects to audit.
func tally(fset *token.FileSet, pkgs []*srcPkg) *audit {
	a := &audit{keys: map[string]bool{}, uses: map[types.Object]*useCount{}}
	count := func(o types.Object, bench bool) {
		c := a.uses[o]
		if c == nil {
			c = &useCount{}
			a.uses[o] = c
		}
		if bench {
			c.bench++
		} else {
			c.main++
		}
	}
	// Spans in which a use of an object is the object's own declaration:
	// a function's body, a type's spec and its methods' receivers.
	self := map[types.Object][][2]token.Pos{}
	called := map[ifaceUse]bool{}
	for _, sp := range pkgs {
		if sp.example {
			continue
		}
		for _, f := range sp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					o := sp.info.Defs[d.Name]
					if o == nil {
						continue
					}
					self[o] = append(self[o], [2]token.Pos{d.Pos(), d.End()})
					if recv := o.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if p, ok := t.(*types.Pointer); ok {
							t = p.Elem()
						}
						if n, ok := t.(*types.Named); ok {
							tn := n.Origin().Obj()
							self[tn] = append(self[tn], [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							o := sp.info.Defs[ts.Name]
							self[o] = append(self[o], [2]token.Pos{ts.Pos(), ts.End()})
						}
					}
				}
			}
		}
	}
	inSelf := func(o types.Object, p token.Pos) bool {
		for _, s := range self[o] {
			if s[0] <= p && p < s[1] {
				return true
			}
		}
		return false
	}
	record := func(id *ast.Ident, o types.Object, bench bool) {
		switch v := o.(type) {
		case *types.Func:
			o = v.Origin()
		case *types.Var:
			o = v.Origin()
		}
		if o.Pkg() == nil || inSelf(o, id.Pos()) {
			return
		}
		count(o, bench)
		if fn, ok := o.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[ifaceUse{it, fn.Name(), bench}] = true
				}
			}
		}
		if !inModule(o.Pkg().Path()) {
			// A standard-library function or field that takes an
			// interface calls that interface's methods.
			for _, it := range ifacesTaken(o) {
				for i := 0; i < it.NumMethods(); i++ {
					called[ifaceUse{it, it.Method(i).Name(), bench}] = true
				}
			}
		}
	}
	for _, sp := range pkgs {
		for id, o := range sp.info.Uses {
			if sp.example && !inExample(sp.files, id.Pos()) {
				continue
			}
			record(id, o, sp.bench)
		}
	}

	for _, sp := range pkgs {
		if sp.bench || sp.example || sp.path == "venn" { // package venn is the public API
			continue
		}
		pkgKey := path.Base(sp.path)
		add := func(o types.Object, key string) {
			a.exported = append(a.exported, exportedObj{obj: o, key: key, pos: fset.Position(o.Pos())})
			a.keys[key] = true
		}
		scope := sp.pkg.Scope()
		for _, name := range scope.Names() {
			o := scope.Lookup(name)
			if o.Exported() {
				add(o, pkgKey+"."+name)
			}
			tn, ok := o.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			var methods []*types.Func
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					methods = append(methods, it.ExplicitMethod(i))
				}
			} else {
				for i := 0; i < named.NumMethods(); i++ {
					methods = append(methods, named.Method(i))
				}
			}
			for _, m := range methods {
				if !m.Exported() || exemptMethods[m.Name()] {
					continue
				}
				add(m, pkgKey+"."+name+"."+m.Name())
				// A concrete method also counts as used through any
				// interface method it implements that is called.
				if _, isIface := named.Underlying().(*types.Interface); isIface {
					continue
				}
				for c := range called {
					if c.name == m.Name() && (types.Implements(named, c.iface) || types.Implements(types.NewPointer(named), c.iface)) {
						count(m, c.bench)
					}
				}
				// A used method keeps its type alive.
				if u := a.uses[m]; u != nil {
					if u.main > 0 {
						count(tn, false)
					}
					if u.bench > 0 {
						count(tn, true)
					}
				}
			}
		}
	}
	for _, e := range a.exported {
		if a.uses[e.obj] == nil {
			a.uses[e.obj] = &useCount{}
		}
	}
	return a
}

// ifacesTaken returns the interfaces a function's parameters or a
// variable's type hold, through slices and pointers.
func ifacesTaken(o types.Object) []*types.Interface {
	var out []*types.Interface
	var walk func(t types.Type)
	walk = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				out = append(out, u)
			}
		case *types.Slice:
			walk(u.Elem())
		case *types.Pointer:
			walk(u.Elem())
		}
	}
	switch v := o.(type) {
	case *types.Func:
		params := v.Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			walk(params.At(i).Type())
		}
	case *types.Var:
		walk(v.Type())
	}
	return out
}

// inExample reports whether p lies inside an Example function.
func inExample(files []*ast.File, p token.Pos) bool {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "Example") && fd.Pos() <= p && p < fd.End() {
				return true
			}
		}
	}
	return false
}

// testMentions checks that the test file in dir that declares the test
// function named test refers to name.
func testMentions(dir, test, name string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, fn := range files {
		af, err := parser.ParseFile(fset, fn, nil, 0)
		if err != nil {
			return err
		}
		if !slices.ContainsFunc(af.Decls, func(d ast.Decl) bool {
			fd, ok := d.(*ast.FuncDecl)
			return ok && fd.Recv == nil && fd.Name.Name == test
		}) {
			continue
		}
		found := false
		ast.Inspect(af, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
		if !found {
			return fmt.Errorf("%s does not call it", fn)
		}
		return nil
	}
	return fmt.Errorf("no %s in %s", test, dir)
}

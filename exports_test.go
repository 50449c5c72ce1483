package polyufc_test

import (
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

// Reasons an exported name under internal/ may have no caller outside
// tests.
const (
	oracle    = "reference implementation tests compare live code against"
	fixture   = "test fixture"
	accessor  = "accessor a test reads live behaviour through"
	ifaceImpl = "interface method"
)

// testOnlyExports is every exported function ("pkg.Func") or method
// ("pkg.Type.Method") under internal/ that no non-test file in internal/,
// cmd/, examples/ or bench/ references, with the reason it stays. Anything
// else only tests reach is deleted, not listed.
var testOnlyExports = map[string]string{
	"cachemodel.ExactColdMisses":          oracle,
	"cachesim.Config.FullyAssociative":    oracle,
	"cachesim.MultiSim.Access":            oracle,
	"cachesim.MultiSim.Cores":             oracle,
	"cachesim.MultiSim.DRAMBytes":         oracle,
	"cachesim.MultiSim.SharedStats":       oracle,
	"cachesim.MultiSim.TotalPrivateStats": oracle,
	"cachesim.NewMulti":                   oracle,
	"interp.RunPartitioned":               oracle,
	"isl.EvalPieces":                      oracle,
	"isl.LinExpr.Eval":                    oracle,
	"isl.Set.EvalPoint":                   oracle,
	"isl.Set.InstantiateParams":           oracle,
	"poly.Poly.Equal":                     oracle,

	"experiments.Suite.ResetCache": fixture,
	"hw.BDW":                       fixture,
	"hw.Platforms":                 fixture,
	"hw.RPL":                       fixture,
	"ir.Module.Clone":              fixture,
	"ir.Nest.Clone":                fixture,
	"isl.BasicSet.AddRange":        fixture,
	"isl.Set.Apply":                fixture,
	"isl.Space.ParamExpr":          fixture,
	"leakcheck.Main":               fixture,
	"poly.Poly.Pow":                fixture,

	"experiments.Suite.Fig5Pattern": accessor,
	"experiments.Suite.Target":      accessor,
	"faults.Registry.Calls":         accessor,
	"faults.Registry.Fired":         accessor,
	"hw.Machine.RAPL":               accessor,
	"ir.AffExpr.Eval":               accessor,
	"ir.Nest.Flops":                 accessor,
	"isl.BasicSet.Count":            accessor,
	"isl.LinExpr.Format":            accessor,
	"isl.LinExpr.IsConst":           accessor,
	"isl.Piece.Format":              accessor,
	"platform.Backend.Marshal":      accessor,
	"poly.Poly.Coeff":               accessor,
	"poly.Poly.Degree":              accessor,
	"poly.Poly.NumVars":             accessor,
	"poly.SumPow":                   accessor,
	"scop.Statement.DomainSet":      accessor,

	"faults.Error.Unwrap":       ifaceImpl,
	"pipeline.UnitError.Unwrap": ifaceImpl,
}

// TestNoTestOnlyExports fails when an exported function or method declared
// under internal/ is referenced from no non-test file and testOnlyExports
// gives no reason for it, and when an entry of testOnlyExports names
// something that is gone or has since gained a non-test caller.
//
// The scan type-checks every non-test file under internal/, cmd/,
// examples/ and bench/ with go/types, offline: the module's packages from
// source, the standard library from its export data. A function or method
// counts as referenced when an identifier outside its own declaration
// resolves to it, so a method is told apart from every other type's method
// of the same name. A method also counts as referenced when its type
// implements an interface declared in a checked package (or `error`) that
// has it: a call through the interface, or from the standard library,
// reaches it.
func TestNoTestOnlyExports(t *testing.T) {
	unreached := scanTestOnlyExports(t)
	for _, key := range sortedKeys(unreached) {
		if _, ok := testOnlyExports[key]; !ok {
			t.Errorf("%s (%s) is exported but only tests reach it: delete it, or give testOnlyExports the reason it stays", key, unreached[key])
		}
	}
	for _, key := range sortedKeys(testOnlyExports) {
		if _, ok := unreached[key]; !ok {
			t.Errorf("stale testOnlyExports entry %q: it is not declared under internal/, or a non-test file now references it", key)
		}
	}
}

// scanTestOnlyExports returns each exported function or method under
// internal/ with no non-test reference, mapped to its position.
func scanTestOnlyExports(t *testing.T) map[string]string {
	t.Helper()
	l := newLoader()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			_, err = l.load(filepath.ToSlash(path))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every exported function and method declared under internal/, with
	// the span of its declaration.
	type decl struct {
		fn       *types.Func
		from, to token.Pos
	}
	var decls []decl
	for _, dir := range sortedKeys(l.files) {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, f := range l.files[dir] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls = append(decls, decl{l.info.Defs[fd.Name].(*types.Func), fd.Pos(), fd.End()})
				}
			}
		}
	}
	declared := map[*types.Func]decl{}
	for _, d := range decls {
		declared[d.fn] = d
	}
	reached := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if d, ok := declared[fn]; ok && d.from <= id.Pos() && id.Pos() < d.to {
			continue // recursion is not a reference
		}
		reached[fn] = true
	}
	ifaces := l.interfaces()

	unreached := map[string]string{}
	for _, d := range decls {
		if reached[d.fn] {
			continue
		}
		key := strings.TrimPrefix(d.fn.Pkg().Path(), "polyufc/internal/") + "."
		if sig := d.fn.Type().(*types.Signature); sig.Recv() != nil {
			named := recvNamed(sig.Recv().Type())
			if implementsAny(named, d.fn.Name(), ifaces) {
				continue
			}
			key += named.Obj().Name() + "."
		}
		unreached[key+d.fn.Name()] = l.fset.Position(d.from).String()
	}
	return unreached
}

// loader type-checks the module's packages from source, each once, and
// imports the standard library from export data. It records every
// identifier's resolution in info.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // by directory; nil when it has no files
	files map[string][]*ast.File    // the non-test files of each checked directory
}

func newLoader() *loader {
	return &loader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
}

// Import implements types.Importer: polyufc/<dir> is the package in dir.
func (l *loader) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "polyufc/"); ok {
		return l.load(dir)
	}
	return l.std.Import(path)
}

// load type-checks the non-test files of dir, a directory below the
// module root; it returns nil for a directory without any.
func (l *loader) load(dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		match, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !match {
			continue // excluded by a build constraint
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.pkgs[dir] = nil
	if len(files) == 0 {
		return nil, nil
	}
	pkg, err := (&types.Config{Importer: l}).Check("polyufc/"+dir, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[dir], l.files[dir] = pkg, files
	return pkg, nil
}

// interfaces returns every non-generic interface type declared at package
// level in a checked package or a standard package one imports, and error.
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var add func(pkg *types.Package)
	add = func(pkg *types.Package) {
		if pkg == nil || seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, imp := range pkg.Imports() {
			add(imp)
		}
	}
	for _, dir := range sortedKeys(l.files) {
		add(l.pkgs[dir])
	}
	return out
}

// recvNamed is the named type of a method receiver, T or *T.
func recvNamed(recv types.Type) *types.Named {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named)
}

// implementsAny reports whether T or *T implements one of ifaces that has
// a method called name. A generic type is never matched.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := range it.NumMethods() {
			if it.Method(i).Name() != name {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package polyufc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
	"cachesim.MultiSim.DRAMBytes":         oracle,
	"cachesim.MultiSim.SharedStats":       oracle,
	"cachesim.MultiSim.TotalPrivateStats": oracle,
	"cachesim.NewMulti":                   oracle,
	"interp.RunPartitioned":               oracle,
	"isl.EvalPieces":                      oracle,

	"experiments.Suite.ResetCache": fixture,
	"faults.Registry.Disable":      fixture,
	"hw.BDW":                       fixture,
	"hw.Platforms":                 fixture,
	"hw.RPL":                       fixture,
	"isl.BasicSet.AddRange":        fixture,
	"isl.Space.ParamExpr":          fixture,
	"leakcheck.Main":               fixture,

	"cachesim.Simulator.LLCStats":    accessor,
	"core.StageNames":                accessor,
	"experiments.Suite.CacheStats":   accessor,
	"experiments.Suite.Fig5Pattern":  accessor,
	"experiments.Suite.ProfileStats": accessor,
	"faults.Registry.Calls":          accessor,
	"faults.Registry.Fired":          accessor,
	"hw.Machine.RAPL":                accessor,
	"jobs.Job.UnitKeys":              accessor,
	"poly.Poly.Coeff":                accessor,
	"poly.Poly.Degree":               accessor,
	"poly.SumPow":                    accessor,
	"scop.Statement.DomainSet":       accessor,

	"faults.Error.Unwrap":       ifaceImpl,
	"pipeline.UnitError.Unwrap": ifaceImpl,
}

// TestNoTestOnlyExports fails when an exported function or method declared
// under internal/ is referenced from no non-test file and testOnlyExports
// gives no reason for it, and when an entry of testOnlyExports names
// something that is gone or has since gained a non-test caller.
//
// The scan is by name, with go/parser only: a function counts as
// referenced when a file of its own package names it (outside its own
// body) or a file importing that package selects it; a method counts as
// referenced when any selector anywhere carries its name.
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
	type file struct {
		pkg string // import path below the module, e.g. "internal/isl"
		ast *ast.File
	}
	var files []file
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	type decl struct{ pkg, recv, name, pos string }
	var decls []decl
	funcRefs := map[string]bool{} // "internal/isl.Count"
	methodRefs := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name -> "internal/isl"
		for _, spec := range f.ast.Imports {
			rel, ok := strings.CutPrefix(strings.Trim(spec.Path.Value, `"`), "polyufc/")
			if !ok {
				continue
			}
			local := rel[strings.LastIndex(rel, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = rel
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				ast.Inspect(d, refVisitor(f.pkg, "", imports, funcRefs, methodRefs))
				continue
			}
			self := ""
			if fn.Recv == nil {
				self = f.pkg + "." + fn.Name.Name
			}
			visit := refVisitor(f.pkg, self, imports, funcRefs, methodRefs)
			if fn.Recv != nil {
				ast.Inspect(fn.Recv, visit)
			}
			ast.Inspect(fn.Type, visit)
			if fn.Body != nil {
				ast.Inspect(fn.Body, visit)
			}
			if fn.Name.IsExported() && strings.HasPrefix(f.pkg, "internal/") {
				decls = append(decls, decl{f.pkg, recvType(fn), fn.Name.Name, fset.Position(fn.Pos()).String()})
			}
		}
	}

	unreached := map[string]string{}
	for _, d := range decls {
		key := strings.TrimPrefix(d.pkg, "internal/") + "."
		if d.recv == "" {
			if funcRefs[d.pkg+"."+d.name] {
				continue
			}
		} else if key += d.recv + "."; methodRefs[d.name] {
			continue
		}
		unreached[key+d.name] = d.pos
	}
	return unreached
}

// recvType is the name of fn's receiver type, "" for a function.
func recvType(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return typ.(*ast.Ident).Name
}

// refVisitor records the references of one subtree of a non-test file of
// package pkg: a bare identifier names a function of pkg, pkgname.X a
// function of an imported package, and any other selector a method. A
// reference to self, the function being walked, is not one.
func refVisitor(pkg, self string, imports map[string]string, funcRefs, methodRefs map[string]bool) func(ast.Node) bool {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					funcRefs[path+"."+n.Sel.Name] = true
					return false
				}
			}
			methodRefs[n.Sel.Name] = true
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			if key := pkg + "." + n.Name; key != self {
				funcRefs[key] = true
			}
		}
		return true
	}
	return visit
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

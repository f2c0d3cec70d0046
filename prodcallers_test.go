package gridcma_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported functions and methods in internal/
// that no production file calls but that stay in the production build,
// keyed as TestEveryInternalExportHasAProductionCaller keys them, each
// with the reason it cannot move into a _test.go file.
var testOnlyAllowlist = map[string]string{
	"gridcma/internal/pareto.MOCellMA.Run": "the library's multi-objective engine, handed out by gridcma.NewMOCellMA; " +
		"ExampleNewMOCellMA (gridcma_test) and internal/pareto's tests run it",
	"gridcma/internal/pareto.Front.Len": "reads the fronts gridcma.NewMOCellMA's engine and gridcma.LambdaSweep return; " +
		"ExampleNewMOCellMA (gridcma_test) and internal/pareto's tests call it",
	"gridcma/internal/pareto.Front.Hypervolume": "scores the fronts gridcma.NewMOCellMA's engine and gridcma.LambdaSweep return; " +
		"ExampleNewMOCellMA (gridcma_test) and internal/pareto's tests call it",
}

// TestEveryInternalExportHasAProductionCaller keeps code that only tests
// call out of the production build. It type-checks every non-test package
// of the library, cmd/ and the benchmark module and fails on each exported
// function or method in internal/ that none of their files uses, unless
// testOnlyAllowlist names it, and on each unexported function or method
// in the library or cmd/ that no file of its own package uses. A method
// that implements an interface is exempt: its callers reach it through
// the interface. internal/chaos is test support, neither scanned nor
// counted as a caller.
func TestEveryInternalExportHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every production package and its imports from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	var pkgs []*types.Package
	used := map[string]bool{}
	for _, root := range []string{".", "benchmark"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root && (name == "testdata" || name == "benchmark" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			path := "gridcma"
			if dir != "." {
				path += "/" + filepath.ToSlash(dir)
			}
			if path == "gridcma/internal/chaos" {
				return filepath.SkipDir
			}
			pkg, info, err := checkDir(fset, imp, dir, path)
			if pkg == nil {
				return err
			}
			pkgs = append(pkgs, pkg)
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[funcKey(fn.Origin())] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ifaces := interfaces(pkgs)
	unused := map[string]bool{}
	for _, pkg := range pkgs {
		internal := strings.HasPrefix(pkg.Path(), "gridcma/internal/")
		if !internal && strings.HasPrefix(pkg.Path(), "gridcma/benchmark") {
			continue
		}
		// Only internal/ exports are checked: the root package's are the
		// library's API, and no other package exports to a caller.
		checked := func(fn *types.Func) bool {
			if fn.Exported() {
				return internal
			}
			return fn.Name() != "main"
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if checked(obj) && !used[funcKey(obj)] {
					unused[funcKey(obj)] = true
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if checked(m) && !used[funcKey(m)] && !implementsAny(named, m.Name(), ifaces) {
						unused[funcKey(m)] = true
					}
				}
			}
		}
	}

	var bad []string
	for key := range unused {
		if _, ok := testOnlyAllowlist[key]; !ok {
			bad = append(bad, key)
		}
	}
	for key := range testOnlyAllowlist {
		if !unused[key] {
			t.Errorf("allowlisted %s is gone or has a production caller: drop it from testOnlyAllowlist", key)
		}
	}
	sort.Strings(bad)
	for _, key := range bad {
		t.Errorf("%s: no production file calls it; move it into a _test.go file or delete it", key)
	}
	t.Logf("%d production packages scanned, %d allowlisted", len(pkgs), len(testOnlyAllowlist))
}

// checkDir type-checks the non-test Go files of dir as package path. It
// returns a nil package, and no error, for a directory without Go files.
func checkDir(fset *token.FileSet, imp types.ImporterFrom, dir, path string) (*types.Package, *types.Info, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, 0)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return pkg, info, err
}

// funcKey names a function as "pkgpath.Name" and a method as
// "pkgpath.Recv.Name", the receiver without its pointer.
func funcKey(fn *types.Func) string {
	key := fn.Name()
	if recv := fn.Signature().Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key = named.Obj().Name() + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// interfaces collects every named interface declared in pkgs or in the
// packages they import, transitively, plus the predeclared error and the
// unnamed interface{ Unwrap() error } through which errors.Is and
// errors.As reach a wrapped error.
func interfaces(pkgs []*types.Package) []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil,
		nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	out := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// implementsAny reports whether T or *T implements an interface in ifaces
// that declares a method called name.
func implementsAny(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

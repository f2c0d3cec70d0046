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
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowlist names the exported functions and methods, the
// struct fields and the interface methods in internal/ that production
// never uses but that stay in the production build, keyed as
// TestEveryInternalExportHasAProductionCaller keys them, each with the
// reason it stays.
var testOnlyAllowlist = map[string]string{
	"gridcma/internal/pareto.Front.Len": "reads the front gridcma.LambdaSweep returns; " +
		"ExampleLambdaSweep (gridcma_test) and internal/pareto's tests call it",
	"gridcma/internal/pareto.Front.Hypervolume": "scores the front gridcma.LambdaSweep returns; " +
		"ExampleLambdaSweep (gridcma_test) and internal/pareto's tests call it",
	"gridcma/internal/daemon.ReplConfig.Batch": "every production caller leaves the cap at its default; " +
		"the failover torture sets it to cut responses short",
	"gridcma/internal/daemon.ReplicatorConfig.Batch": "every production caller leaves the cap at its default; " +
		"TestReplicationCatchUp, TestReplPullDigestStamp, TestReadyzFollowerReasons, " +
		"TestReplicatorRunLoopConverges and the failover torture set it to cut pulls short",
	"gridcma/internal/island/dist.Config.CheckpointPath": distSupervision,
	"gridcma/internal/island/dist.Config.Logf":           distSupervision,
}

// distSupervision is the reason the coordinator's supervision knobs stay:
// no binary runs a coordinator that sets them yet.
const distSupervision = "item 16 wires or deletes (ROADMAP: a production client for the distributed island engine)"

// TestEveryInternalExportHasAProductionCaller keeps code that only tests
// use out of the production build. It type-checks every non-test package
// of the library, cmd/ and the benchmark module, and fails on each of
// these that none of their files uses, unless testOnlyAllowlist names it:
//   - an exported function or method in internal/;
//   - an unexported function or method in the library or cmd/ that no
//     file of its own package uses;
//   - an exported field of an internal/ struct that production never
//     sets: no assignment, increment, address, keyed or positional
//     literal, or pointer-method call through it. A field's own default,
//     an assignment to x.F directly inside an if that compares x.F with
//     a zero literal, is not a set. A struct with JSON tags is decoded
//     from bytes and exempt;
//   - a method of an internal/ interface that production calls neither
//     through the interface nor on a type that implements it.
//
// A method that implements an interface is exempt from the first two:
// the last one covers it. The root package's fields are the library's
// API: the ones production never sets are logged, not failed.
// internal/chaos is test support, neither scanned nor counted as a user.
func TestEveryInternalExportHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every production package and its imports from source")
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	var pkgs []*types.Package
	used := map[string]bool{}
	// set holds the fields production sets, keyed by declaration
	// position: the source importer checks a package again for each
	// importer, so one field has a *types.Var per check.
	set := map[string]bool{}
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
			pkg, files, info, err := checkDir(fset, imp, dir, path)
			if pkg == nil {
				return err
			}
			pkgs = append(pkgs, pkg)
			for _, obj := range info.Uses {
				if fn, ok := obj.(*types.Func); ok {
					used[funcKey(fn.Origin())] = true
				}
			}
			for _, f := range files {
				markSetFields(fset, info, f, set)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	ifaces := interfaces(pkgs)
	unused := map[string]string{}
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
					unused[funcKey(obj)] = "no production file calls it"
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if checked(m) && !used[funcKey(m)] && !implementsAny(named, m.Name(), ifaces) {
						unused[funcKey(m)] = "no production file calls it"
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || hasJSONTags(st) {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if !f.Exported() || f.Embedded() || set[fset.Position(f.Pos()).String()] {
						continue
					}
					key := pkg.Path() + "." + obj.Name() + "." + f.Name()
					if internal {
						unused[key] = "no production file sets it"
					} else if pkg.Path() == "gridcma" {
						t.Logf("API field %s: no production file sets it", key)
					}
				}
			}
		}
	}
	for key := range uncalledInterfaceMethods(t, imp, pkgs, used) {
		unused[key] = "no production file calls it, through the interface or on an implementation"
	}

	var bad []string
	for key := range unused {
		if _, ok := testOnlyAllowlist[key]; !ok {
			bad = append(bad, key)
		}
	}
	for key := range testOnlyAllowlist {
		if _, ok := unused[key]; !ok {
			t.Errorf("allowlisted %s is gone or has a production user: drop it from testOnlyAllowlist", key)
		}
	}
	sort.Strings(bad)
	for _, key := range bad {
		t.Errorf("%s: %s; move it into a _test.go file or delete it", key, unused[key])
	}
	t.Logf("%d production packages scanned, %d allowlisted", len(pkgs), len(testOnlyAllowlist))
}

// markSetFields adds to set the declaration position of every field f
// sets: as an assignment or increment target, by taking its address
// (explicitly, or implicitly to call a pointer method), or in a keyed or
// positional composite literal. Setting x.a.b, or an element of an array
// field, sets the value fields on the way as well. A defaulting
// assignment (defaults) sets nothing.
func markSetFields(fset *token.FileSet, info *types.Info, f *ast.File, set map[string]bool) {
	mark := func(v *types.Var) { set[fset.Position(v.Pos()).String()] = true }
	skip := defaults(info, f)
	var target func(ast.Expr)
	target = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			mark(sel.Obj().(*types.Var))
			if _, ptr := info.TypeOf(e.X).Underlying().(*types.Pointer); !ptr {
				target(e.X)
			}
		case *ast.IndexExpr:
			if _, arr := info.TypeOf(e.X).Underlying().(*types.Array); arr {
				target(e.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if skip[n] {
				return true
			}
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				target(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.SelectorExpr:
			sel := info.Selections[n]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			recv := sel.Obj().(*types.Func).Signature().Recv()
			_, ptrRecv := recv.Type().(*types.Pointer)
			_, ptrX := info.TypeOf(n.X).Underlying().(*types.Pointer)
			if ptrRecv && !ptrX {
				target(n.X)
			}
		case *ast.CompositeLit:
			tv, ok := info.Types[n]
			if !ok {
				return true
			}
			typ := tv.Type
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						mark(v)
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		}
		return true
	})
}

// defaults returns f's defaulting assignments: each assignment to a
// field x.F that is a statement of an if's body whose condition compares
// x.F with a zero literal (0, "" or nil), alone or as one term of an &&
// chain, as in `if cfg.Batch <= 0 { cfg.Batch = 512 }`. A field whose
// only sets are its own defaults is one no caller sets.
func defaults(info *types.Info, f *ast.File) map[*ast.AssignStmt]bool {
	zero := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.BasicLit:
			return e.Value == "0" || e.Value == `""`
		case *ast.Ident:
			return info.Uses[e] == types.Universe.Lookup("nil")
		}
		return false
	}
	field := func(e ast.Expr) (string, bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.FieldVal {
			return "", false
		}
		return types.ExprString(sel), true
	}
	// compared adds to xs each field the condition e compares with a
	// zero literal.
	var compared func(e ast.Expr, xs map[string]bool)
	compared = func(e ast.Expr, xs map[string]bool) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch b.Op {
		case token.LAND:
			compared(b.X, xs)
			compared(b.Y, xs)
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			for _, pair := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
				if x, ok := field(pair[0]); ok && zero(pair[1]) {
					xs[x] = true
				}
			}
		}
	}
	out := map[*ast.AssignStmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		xs := map[string]bool{}
		compared(ifs.Cond, xs)
		for _, st := range ifs.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if x, ok := field(as.Lhs[0]); ok && xs[x] {
					out[as] = true
				}
			}
		}
		return true
	})
	return out
}

// TestDefaultsAreNotSets pins the guard's rule for a field's own
// default: the assignments marked "default" below are the only ones
// defaults returns. A running maximum and an assignment to another field
// than the one compared are sets.
func TestDefaultsAreNotSets(t *testing.T) {
	const src = `package p

type C struct {
	N    int
	S    string
	P    *int
	Best float64
}

func f(c *C, v float64) {
	if c.N <= 0 {
		c.N = 512 // default
	}
	if c.S == "" && c.N > 1 {
		c.S = "x" // default
	}
	if 0 == c.N {
		c.N = 1 // default
	}
	if c.P == nil {
		c.P = new(int) // default
	}
	if v > c.Best {
		c.Best = v
	}
	if c.N <= 0 {
		c.S = "y"
	}
	if c.S == "" || v > 0 {
		c.S = "z"
	}
	c.N = 3
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, c := range f.Comments {
		if c.Text() == "default\n" {
			want[fset.Position(c.Pos()).Line] = true
		}
	}
	got := defaults(info, f)
	assigns := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			assigns++
			if line := fset.Position(as.Pos()).Line; got[as] != want[line] {
				t.Errorf("line %d: defaults says %v, want %v", line, got[as], want[line])
			}
		}
		return true
	})
	if assigns != 8 || len(want) != 4 {
		t.Fatalf("%d assignments, %d marked defaults; want 8 and 4", assigns, len(want))
	}
}

// hasJSONTags reports whether a field of st carries a json tag: the
// struct is decoded from bytes, which sets its fields.
func hasJSONTags(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// uncalledInterfaceMethods returns the methods of the interfaces declared
// in internal/ that production calls neither through the interface nor,
// by used, on a named type that implements it. The interfaces and their
// implementations are taken from one importer's packages, so that
// implementation is checked among types of one type-check.
func uncalledInterfaceMethods(t *testing.T, imp types.ImporterFrom, pkgs []*types.Package, used map[string]bool) map[string]bool {
	abs, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var named []*types.Named
	var decl []*types.TypeName
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, ok := n.Underlying().(*types.Interface); ok {
				if strings.HasPrefix(p.Path(), "gridcma/internal/") {
					decl = append(decl, tn)
				}
			} else {
				named = append(named, n)
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range pkgs {
		if p.Name() == "main" {
			continue
		}
		ip, err := imp.ImportFrom(p.Path(), abs, 0)
		if err != nil {
			t.Fatal(err)
		}
		visit(ip)
	}

	out := map[string]bool{}
	for _, tn := range decl {
		it := tn.Type().Underlying().(*types.Interface)
		for i := 0; i < it.NumExplicitMethods(); i++ {
			m := it.ExplicitMethod(i)
			if !used[funcKey(m)] && !calledOnImplementation(it, m, named, used) {
				out[funcKey(m)] = true
			}
		}
	}
	return out
}

// calledOnImplementation reports whether used holds method m of a named
// type (or its pointer) that implements it.
func calledOnImplementation(it *types.Interface, m *types.Func, named []*types.Named, used map[string]bool) bool {
	for _, n := range named {
		for _, typ := range []types.Type{n, types.NewPointer(n)} {
			if !types.Implements(typ, it) {
				continue
			}
			sel := types.NewMethodSet(typ).Lookup(m.Pkg(), m.Name())
			if sel != nil && used[funcKey(sel.Obj().(*types.Func).Origin())] {
				return true
			}
		}
	}
	return false
}

// checkDir type-checks the non-test Go files of dir as package path. It
// returns a nil package, and no error, for a directory without Go files.
func checkDir(fset *token.FileSet, imp types.ImporterFrom, dir, path string) (*types.Package, []*ast.File, *types.Info, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
	return pkg, files, info, err
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

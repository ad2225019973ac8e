package repro_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/vclock"
)

// TestNoHostCoreReads is the tripwire for ROADMAP item 1a: a simulated
// time must not depend on the machine that simulates it, so no non-test
// file of the module may call runtime.GOMAXPROCS or runtime.NumCPU —
// except parallelWorkersFor in internal/datatype/plan.go, which sizes
// the goroutine split the pack engine really runs and is never priced.
// cmd/bench, a module of its own, pins and records GOMAXPROCS and is
// not walked.
func TestNoHostCoreReads(t *testing.T) {
	const allowed = "internal/datatype/plan.go parallelWorkersFor"
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join("cmd", "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"runtime"` {
				pkgName = "runtime"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		if pkgName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			where := filepath.ToSlash(path)
			if fn, ok := decl.(*ast.FuncDecl); ok {
				where += " " + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "GOMAXPROCS" && sel.Sel.Name != "NumCPU") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkgName && where != allowed {
					sites = append(sites, fset.Position(sel.Pos()).String()+" runtime."+sel.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("the host's core count read outside %s at %v", allowed, sites)
	}
}

// TestMpiPayloadCopiesMove is the tripwire for the one contiguous
// move: no non-test file of internal/mpi may call buf.Copy or
// buf.CopyAt, so every payload copy goes through datatype.Move and
// splits across the pack workers when it is large.
func TestMpiPayloadCopiesMove(t *testing.T) {
	var sites []string
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("internal", "mpi", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files found under internal/mpi (%v)", err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/buf"` {
				pkgName = "buf"
				if imp.Name != nil {
					pkgName = imp.Name.Name
				}
			}
		}
		if pkgName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Copy" && sel.Sel.Name != "CopyAt") {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkgName {
				sites = append(sites, fset.Position(sel.Pos()).String()+" buf."+sel.Sel.Name)
			}
			return true
		})
	}
	if len(sites) != 0 {
		t.Fatalf("payload copies in internal/mpi bypass datatype.Move at %v", sites)
	}
}

// TestDatatypeGoroutinesFanOut is the tripwire for the pack workers
// being the only goroutines of the byte path: no non-test file of
// internal/datatype but fanout.go may start a goroutine or make a
// channel, so every concurrent move runs through fanOut, whose workers
// take one share each and never outlive the call that started them.
func TestDatatypeGoroutinesFanOut(t *testing.T) {
	var sites []string
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join("internal", "datatype", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no files found under internal/datatype (%v)", err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") || filepath.Base(path) == "fanout.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				sites = append(sites, fset.Position(n.Pos()).String()+" go statement")
			case *ast.CallExpr:
				if fn, ok := n.Fun.(*ast.Ident); ok && fn.Name == "make" && len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						sites = append(sites, fset.Position(n.Pos()).String()+" make(chan)")
					}
				}
			}
			return true
		})
	}
	if len(sites) != 0 {
		t.Fatalf("goroutines or channels in internal/datatype outside fanout.go at %v", sites)
	}
}

// TestMeasuredRunsUseTheRunner is the tripwire for one measured run:
// outside internal/mpi, no non-test file under internal/ may start a
// world with mpi.Run, set a WallLimit, or read the process-wide
// counters with datatype.PlanStatsSnapshot or buf.PoolStatsSnapshot.
// Every internal world goes through mpi.Measure, which owns the
// watchdog and the whole-run counter deltas, and every timed window
// through mpi.Window. The facade (api.go) and cmd/bench are not
// walked.
func TestMeasuredRunsUseTheRunner(t *testing.T) {
	forbidden := map[string]map[string]bool{
		`"repro/internal/mpi"`:      {"Run": true},
		`"repro/internal/datatype"`: {"PlanStatsSnapshot": true},
		`"repro/internal/buf"`:      {"PoolStatsSnapshot": true},
	}
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "mpi") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := map[string]map[string]bool{} // local import name -> forbidden selectors
		for _, imp := range f.Imports {
			if sels, ok := forbidden[imp.Path.Value]; ok {
				name, _ := strconv.Unquote(imp.Path.Value)
				name = filepath.Base(name)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				names[name] = sels
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "WallLimit" {
					sites = append(sites, fset.Position(n.Pos()).String()+" WallLimit")
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && names[x.Name][sel.Sel.Name] {
					sites = append(sites, fset.Position(n.Pos()).String()+" "+x.Name+"."+sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("measured runs outside mpi.Measure and mpi.Window at %v", sites)
	}
}

// TestEveryWaitIsAwait is the tripwire for ROADMAP item 16: every
// blocking wait of the runtime parks through simnet's Await, which an
// abort always reaches and which registers with the quiescence
// detector. So no non-test file of internal/mpi or internal/simnet may
// receive from a channel, run a select, or call Wait on a variable or
// field declared as a sync.Cond or sync.WaitGroup — except in these
// functions:
//   - simnet (*mailbox).park: the park itself, where every Await blocks;
//   - mpi Run: the join of the rank goroutines, which waits for the
//     goroutines themselves, not for a fabric event, and which an abort
//     ends by unwinding them;
//   - simnet (*Fabric).WaitQuiesce: the detector's ticker loop, on a
//     goroutine of its own that no rank waits for.
//
// datatype's pack workers are not walked: their join waits for a
// fan-out of byte moves that never waits on another rank.
func TestEveryWaitIsAwait(t *testing.T) {
	exempt := map[string]bool{
		"simnet (*mailbox).park":       true,
		"mpi Run":                      true,
		"simnet (*Fabric).WaitQuiesce": true,
	}
	var sites []string
	fset := token.NewFileSet()
	for _, pkg := range []string{"mpi", "simnet"} {
		paths, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("no files found under internal/%s (%v)", pkg, err)
		}
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		// The names the package gives its conds and wait groups: fields,
		// variables, and anything assigned from sync.NewCond.
		isSyncWaiter := func(e ast.Expr) bool {
			if st, ok := e.(*ast.StarExpr); ok {
				e = st.X
			}
			if call, ok := e.(*ast.CallExpr); ok {
				e = call.Fun
				if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewCond" {
					return isIdent(sel.X, "sync")
				}
				return false
			}
			sel, ok := e.(*ast.SelectorExpr)
			return ok && isIdent(sel.X, "sync") && (sel.Sel.Name == "Cond" || sel.Sel.Name == "WaitGroup")
		}
		waiters := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Field:
					if isSyncWaiter(n.Type) {
						for _, name := range n.Names {
							waiters[name.Name] = true
						}
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if (n.Type != nil && isSyncWaiter(n.Type)) || (i < len(n.Values) && isSyncWaiter(n.Values[i])) {
							waiters[name.Name] = true
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if i < len(n.Rhs) && isSyncWaiter(n.Rhs[i]) {
							if name := lastName(lhs); name != "" {
								waiters[name] = true
							}
						}
					}
				}
				return true
			})
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil || exempt[pkg+" "+funcName(fn)] {
					continue
				}
				at := func(n ast.Node, what string) {
					sites = append(sites, fmt.Sprintf("%s in %s: %s", fset.Position(n.Pos()), funcName(fn), what))
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.UnaryExpr:
						if n.Op == token.ARROW {
							at(n, "channel receive")
						}
					case *ast.SelectStmt:
						at(n, "select")
					case *ast.CallExpr:
						if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" && len(n.Args) == 0 && waiters[lastName(sel.X)] {
							at(n, lastName(sel.X)+".Wait()")
						}
					}
					return true
				})
			}
		}
	}
	if len(sites) != 0 {
		t.Fatalf("blocking waits outside simnet's Await at %v", sites)
	}
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// lastName is the final identifier of a name or selector chain, "" for
// anything else.
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// funcName names a declaration as "F" or "(*T).M".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	typ, star := fn.Recv.List[0].Type, ""
	if st, ok := typ.(*ast.StarExpr); ok {
		typ, star = st.X, "*"
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	return "(" + star + lastName(typ) + ")." + fn.Name.Name
}

// TestOneGoldenStore is the tripwire for ROADMAP item 17: a test pins
// output through oracle.Golden, whose one flag pair and one
// testdata/golden.txt per package are the only knobs and the only
// record. So no _test.go file of the module outside internal/oracle may
// declare a flag, or pass a testdata/ path to os.ReadFile, os.WriteFile,
// os.Open, os.OpenFile or os.Create: a path whose expression holds a
// "testdata" string literal, directly or through a constant or
// variable of the file or its package. cmd/bench, a module of its own,
// is not walked.
func TestOneGoldenStore(t *testing.T) {
	declares := strings.Fields("Bool BoolFunc BoolVar Duration DurationVar Float64 Float64Var Func Int Int64 Int64Var IntVar String StringVar TextVar Uint Uint64 Uint64Var UintVar Var")
	opens := strings.Fields("ReadFile WriteFile Open OpenFile Create")
	fset := token.NewFileSet()
	pkgs := map[string][]*ast.File{} // directory → its parsed files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("cmd", "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgs[dir] = append(pkgs[dir], f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var sites []string
	for dir, files := range pkgs {
		values := map[string]ast.Expr{} // the package-level values, for names a file does not resolve
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if vs, ok := n.(*ast.ValueSpec); ok {
					for i := range min(len(vs.Names), len(vs.Values)) {
						values[vs.Names[i].Name] = vs.Values[i]
					}
				}
				_, isFunc := n.(*ast.FuncDecl)
				return !isFunc
			})
		}
		for _, f := range files {
			pos := fset.Position(f.Pos())
			if !strings.HasSuffix(pos.Filename, "_test.go") || dir == "internal/oracle" {
				continue
			}
			imports := map[string]string{} // local name → import path
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				name := filepath.Base(path)
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				x, ok := sel.X.(*ast.Ident)
				if !ok || x.Obj != nil {
					return true
				}
				at := fset.Position(call.Pos()).String()
				switch pkg := imports[x.Name]; {
				case pkg == "flag" && slices.Contains(declares, sel.Sel.Name):
					sites = append(sites, at+" declares a flag (flag."+sel.Sel.Name+")")
				case pkg == "os" && slices.Contains(opens, sel.Sel.Name) && len(call.Args) > 0 &&
					holdsTestdata(call.Args[0], values, map[*ast.Ident]bool{}):
					sites = append(sites, at+" passes a testdata path to os."+sel.Sel.Name)
				}
				return true
			})
		}
	}
	sort.Strings(sites)
	if len(sites) != 0 {
		t.Fatalf("tests keep golden knobs or files of their own (oracle.Golden is the one store):\n\t%s", strings.Join(sites, "\n\t"))
	}
}

// holdsTestdata reports whether e holds a "testdata" string literal,
// following each identifier to the value it was declared or assigned
// with: through the parser's scope within the file, through values
// (the package-level values by name) beyond it.
func holdsTestdata(e ast.Expr, values map[string]ast.Expr, seen map[*ast.Ident]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.BasicLit:
			found = x.Kind == token.STRING && strings.Contains(x.Value, "testdata")
		case *ast.Ident:
			if seen[x] {
				return false
			}
			seen[x] = true
			v := values[x.Name]
			if x.Obj != nil {
				v = nil
				switch d := x.Obj.Decl.(type) {
				case *ast.ValueSpec:
					if i := slices.IndexFunc(d.Names, func(id *ast.Ident) bool { return id.Name == x.Name }); i >= 0 && i < len(d.Values) {
						v = d.Values[i]
					}
				case *ast.AssignStmt:
					if i := slices.IndexFunc(d.Lhs, func(l ast.Expr) bool { id, ok := l.(*ast.Ident); return ok && id.Name == x.Name }); i >= 0 && i < len(d.Rhs) {
						v = d.Rhs[i]
					}
				}
			}
			found = v != nil && holdsTestdata(v, values, seen)
		}
		return true
	})
	return found
}

// TestNoPackageSwitches is the tripwire for ROADMAP item 3: a simulated
// run is a function of its inputs, so no package under internal/, and
// not the api.go facade, may declare a receiverless Set… function — a
// process-global switch some earlier caller could leave flipped.
func TestNoPackageSwitches(t *testing.T) {
	var sites []string
	fset := token.NewFileSet()
	check := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Set") {
				sites = append(sites, fset.Position(fn.Pos()).String()+" "+fn.Name.Name)
			}
		}
		return nil
	}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		return check(path)
	})
	if err == nil {
		err = check("api.go")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 0 {
		t.Fatalf("package-level switches declared at %v", sites)
	}
}

// TestEveryInternalFuncIsReachable is the tripwire for ROADMAP item
// 12: every func declared in a non-test file under internal/ is reached
// by the linker from at least one production binary — cmd/figures,
// cmd/bench and each program under examples/. It links
// each of them with -ldflags=-dumpdep, which prints every symbol the
// linker's dead-code pass keeps, and names each declaration that no
// dump mentions. Inlining is off (-gcflags=all=-l): an inlined helper
// leaves no symbol of its own and would read as dead. A helper only
// tests need lives in a _test.go file or in internal/oracle, which no
// non-test file may import.
func TestEveryInternalFuncIsReachable(t *testing.T) {
	roots := [][]string{{"./cmd/figures"}, {"-C", "cmd/bench", "."}}
	examples, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example programs found (%v)", err)
	}
	for _, e := range examples {
		roots = append(roots, []string{"./" + filepath.ToSlash(filepath.Dir(e))})
	}
	reached := map[string]bool{}
	for _, root := range roots {
		// -C must come first; the package pattern comes last.
		args := append([]string{"build"}, root[:len(root)-1]...)
		args = append(args, "-o", "/dev/null", "-gcflags=all=-l", "-ldflags=-dumpdep", root[len(root)-1])
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			_, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok || !strings.HasPrefix(to, "repro/") {
				continue
			}
			// Only the function's own symbol counts: the linker
			// deduplicates its data (F.stkobj, F.argliveinfo) under
			// whichever function's name came first.
			reached[stripTypeArgs(to)] = true
		}
	}

	var dead []string
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro/internal/oracle"` {
				t.Errorf("%s imports internal/oracle, which only tests may use", path)
			}
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || dir == "internal/oracle" {
			return nil
		}
		pkg := "repro/" + dir + "."
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			// A method's symbol is pkg.T.M or pkg.(*T).M; a value
			// method called through a pointer is kept as both.
			name, alt := fn.Name.Name, ""
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				star, ptr := typ.(*ast.StarExpr)
				if ptr {
					typ = star.X
				}
				switch x := typ.(type) {
				case *ast.IndexExpr:
					typ = x.X
				case *ast.IndexListExpr:
					typ = x.X
				}
				recv := typ.(*ast.Ident).Name
				name, alt = recv+"."+name, "(*"+recv+")."+name
				if ptr {
					name = alt
				}
			}
			if !reached[pkg+name] && !reached[pkg+alt] {
				dead = append(dead, fset.Position(fn.Pos()).String()+" "+name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dead)
	if len(dead) != 0 {
		t.Fatalf("%d funcs under internal/ that no production binary reaches:\n\t%s", len(dead), strings.Join(dead, "\n\t"))
	}
}

// stripTypeArgs removes the bracketed type arguments from a linker
// symbol, so repro/x.F[go.shape.int] reads as repro/x.F.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// TestPricedKernelIsChargedKernel pins model and engine to one
// decision: for the canonical workload at sizes straddling the
// parallel-pack threshold on the four paper profiles, the kernel spec
// core.Price priced the compiled pack with is the spec
// Comm.PackCompiled charged its plan with, and the two virtual costs
// are the same number.
func TestPricedKernelIsChargedKernel(t *testing.T) {
	th := int64(datatype.ParallelPackThreshold)
	for _, name := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		for _, n := range []int64{th / 2, th - 8, th, th + 8, 2 * th, 8 * th} {
			prof, err := perfmodel.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			w := core.ForBytes(n)
			ty, err := w.VectorType()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := ty.CompilePlan(1)
			if err != nil {
				t.Fatal(err)
			}

			m, err := core.Price(core.Query{Bytes: n, Profile: prof})
			if err != nil {
				t.Fatal(err)
			}
			priced := memsim.Kernel{Engine: memsim.Compiled, Workers: m.Workers}
			if m.Normalized {
				priced.Engine = memsim.Normalized
			}
			if charged := mpi.PlanKernel(plan); priced != charged {
				t.Errorf("%s %d B: priced with %+v, charged with %+v", name, n, priced, charged)
			}

			cold := memsim.NewState(&prof.Mem)
			cold.SetDisabled(true)
			gather := cold.GatherCost(0, 0, ty.Stats(1), priced)
			if want := prof.PackCallOverhead + gather + prof.WireTime(n); m.Clean[core.PackCompiled] != want {
				t.Errorf("%s %d B: compiled pack %g is not the %+v gather's %g", name, n, m.Clean[core.PackCompiled], priced, want)
			}
			var charged vclock.Duration
			err = mpi.Run(1, mpi.Options{Profile: prof, ColdCaches: true}, func(c *mpi.Comm) error {
				var pos int64
				before := c.Wtime()
				err := c.PackCompiled(buf.Virtual(int(w.SrcBytes())), 1, ty, buf.Virtual(int(n)), &pos)
				charged = vclock.FromSeconds(c.Wtime() - before)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := vclock.FromSeconds(prof.PackCallOverhead + gather); charged != want {
				t.Errorf("%s %d B: PackCompiled charged %d ns, the priced kernel costs %d ns", name, n, charged, want)
			}
		}
	}
}

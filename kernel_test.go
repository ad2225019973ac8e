package repro_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/vclock"
)

// TestHostFanOutHasOneReader is the tripwire for ROADMAP item 1: the
// host's core count reaches a simulated cost through
// datatype.ParallelWorkersFor, so outside internal/datatype that name
// may be selected in exactly one place — mpi.KernelFor, which core
// prices through and mpi charges through. A second reader is a second
// place the virtual clock depends on the machine.
func TestHostFanOutHasOneReader(t *testing.T) {
	const datatypePath = `"repro/internal/datatype"`
	var sites []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join("internal", "datatype")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		pkgName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value != datatypePath {
				continue
			}
			pkgName = "datatype"
			if imp.Name != nil {
				pkgName = imp.Name.Name
			}
		}
		if pkgName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "ParallelWorkersFor" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkgName {
				sites = append(sites, fset.Position(sel.Pos()).String())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) != 1 || !strings.HasPrefix(sites[0], filepath.Join("internal", "mpi", "pack.go")+":") {
		t.Fatalf("datatype.ParallelWorkersFor selected at %v, want exactly one site, in internal/mpi/pack.go", sites)
	}
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
			gather := cold.GatherCost(0, 0, layout.Describe(w.Layout()), priced)
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

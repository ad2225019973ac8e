package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
				before := c.Clock().Now()
				err := c.PackCompiled(buf.Virtual(int(w.SrcBytes())), 1, ty, buf.Virtual(int(n)), &pos)
				charged = vclock.Duration(c.Clock().Now() - before)
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

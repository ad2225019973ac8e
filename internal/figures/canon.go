package figures

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/plot"
)

// canonStudy is E19: the Commit-time datatype normalizer (the TEMPI
// direction), measured in real (wall-clock) time. It does not depend
// on the installation, so it runs once.
//
// Each panel packs one nested derived type — its normalized program,
// the canonical strided-block form executed in closed form — and its
// datatype.GatherTwin, the same runs as a table no closed form matches,
// which stands in for the raw flattened gather walk; it charts both
// rates. Alongside the bandwidths the study records what the pass
// actually did to each type: the per-instance run count it collapsed,
// the dimensionality of the closed form, the class label of the
// program, the CanonicalString rendering and the plan counters of the
// canon sweep, so the chart ties the speedup to the IR transformation
// that produced it. The twin's gather and block executions are curves
// for the tests: every twin pack must run the gather walk.
//
// The third family is the deliberate miss: an irregular indexed type
// no closed form matches, where the normalizer can only hoist the
// uniform element size. Its canon-vs-twin ratio near 1 is the study's
// control — the pass helps where a canonical form exists and costs
// nothing where one doesn't.
func canonStudy() *Study {
	var panels []Panel
	for _, g := range canonGeometries {
		panels = append(panels, Panel{Config: plot.Config{
			Title:  g.name + ": normalized vs gather-twin pack bandwidth (GB/s)",
			XLabel: "message bytes", YLabel: "GB/s", LogX: true,
		}, Variant: g.name, Curves: []Curve{{Name: "canon", Label: "normalized (canonical program)"},
			{Name: "twin", Label: "gather twin (flattened table walk)"}}},
			Panel{Config: plot.Config{Title: g.name + " per size:"}, Variant: g.name, Note: true})
	}
	return &Study{
		ID: "E19", Name: "canon", Title: "canonical-normalizer study", Once: true,
		Detail: wallDetail,
		Sizes:  fixed(256<<10, 1<<20, 8<<20), Real: true, MaxReps: 12,
		Measure: func(r *Result, opt harness.Options) error {
			for _, g := range canonGeometries {
				for _, n := range r.sizes {
					if err := measureCanon(r, g, n, opt.Reps); err != nil {
						return err
					}
				}
				r.printf(g.name, "\n")
			}
			return nil
		},
		Panels: panels,
		Claims: []Claim{{Metric: "canonSpeedup(x)",
			Line:  "the normalized block kernel is %.2fx the gather twin's table walk on nested 8-byte runs at the largest size\n",
			Value: func(r *Result) float64 { return r.last(per("hvecOfVec8B", "canon", "twin")) },
			Holds: above(0)}},
		Spaced: true,
	}
}

// canonGeometry builds one study type covering about n payload bytes.
type canonGeometry struct {
	name      string
	collapses bool // whether the normalizer should find a closed form
	build     func(n int64) (*datatype.Type, error)
}

// canonHvecOfVec is the paper's nested motif: a strided vector of 8-byte
// runs replicated by an hvector whose byte stride breaks the inner
// continuation (inner Vector(16,1,2) continues at 256B; TrueExtent
// 248B + 16B pad = 264B ≠ 256B), so the flattener emits the irregular
// table the normalizer collapses to a 2-D block form.
func canonHvecOfVec(n int64) (*datatype.Type, error) {
	const innerRuns = 16
	inner, err := datatype.Vector(innerRuns, 1, 2, datatype.Float64)
	if err != nil {
		return nil, err
	}
	rows := n / (innerRuns * 8)
	if rows < 2 {
		rows = 2
	}
	return datatype.Hvector(int(rows), 1, inner.TrueExtent()+16, inner)
}

// canonSubarray3d selects a 3-D face with strictly partial rows
// (32-of-48 doubles), the shape that collapses to the 3-D block form.
func canonSubarray3d(n int64) (*datatype.Type, error) {
	const rows, rowFull, cols, colsFull = 8, 12, 32, 48
	planes := n / (rows * cols * 8)
	if planes < 2 {
		planes = 2
	}
	return datatype.Subarray(
		[]int{int(planes) + 2, rowFull, colsFull},
		[]int{int(planes), rows, cols},
		[]int{1, 2, 4},
		datatype.OrderC, datatype.Float64)
}

// canonIndexedIrregular builds a single-element indexed type whose
// displacement gaps cycle through 2..6 elements — never uniform, never
// abutting — so no closed form verifies and the normalizer can only
// hoist the uniform 8-byte run length.
func canonIndexedIrregular(n int64) (*datatype.Type, error) {
	count := int(n / 8)
	if count < 4 {
		count = 4
	}
	displs := make([]int, count)
	d := 0
	for i := range displs {
		displs[i] = d
		d += 2 + i%5
	}
	return datatype.IndexedBlock(1, displs, datatype.Float64)
}

var canonGeometries = []canonGeometry{
	{"hvecOfVec8B", true, canonHvecOfVec},
	{"subarray3d", true, canonSubarray3d},
	{"indexedIrregular", false, canonIndexedIrregular},
}

// canonPack times reps compiled packs of ty, returning seconds, the
// moved bytes per pack and the plan-counter delta of the sweep.
func canonPack(ty *datatype.Type, reps int) (float64, int64, datatype.PlanStats, error) {
	before := datatype.PlanStatsSnapshot()
	plan, err := ty.CompilePlan(1)
	if err != nil {
		return 0, 0, datatype.PlanStats{}, err
	}
	src := buf.Alloc(int(ty.UB()))
	src.FillPattern(0x19)
	packed := buf.Alloc(int(plan.Bytes()))
	secs, err := wall(reps, func() error {
		_, err := plan.Pack(src, packed)
		return err
	})
	return secs, plan.Bytes(), datatype.PlanStatsSnapshot().Sub(before), err
}

// measureCanon packs the family's type and its gather twin for one
// (family, size) cell.
func measureCanon(r *Result, g canonGeometry, n int64, reps int) error {
	ty, err := g.build(n)
	if err != nil {
		return err
	}
	if err := ty.Commit(); err != nil {
		return err
	}
	twin, err := datatype.GatherTwin(ty)
	if err != nil {
		return err
	}
	canonSecs, moved, canonStats, err := canonPack(ty, reps)
	if err != nil {
		return err
	}
	twinSecs, _, twinStats, err := canonPack(twin, reps)
	if err != nil {
		return err
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		return err
	}
	_, rawRuns, dims := plan.Canon()

	bytes, x := float64(moved)*float64(reps), float64(n)
	canon, tw := gbps(bytes, canonSecs), gbps(bytes, twinSecs)
	r.add(Curve{Name: "canon", Variant: g.name}, x, canon)
	r.add(Curve{Name: "twin", Variant: g.name}, x, tw)
	r.add(Curve{Name: "twin gather ops", Variant: g.name}, x, float64(twinStats.GatherOps))
	r.add(Curve{Name: "twin block ops", Variant: g.name}, x, float64(twinStats.BlockOps))
	reduction := "table kept (uniform hoist)"
	if rawRuns > 0 {
		reduction = fmt.Sprintf("runs %d→%d (block%dd)", rawRuns, dims, dims)
	}
	r.printf(g.name, "  %12d B  canon %6.2f GB/s  twin %6.2f GB/s  canon/twin %.2fx  class %s  %s\n                 %s  %v\n",
		n, canon, tw, ratio(canon, tw), plan.KernelClass(), reduction, ty.CanonicalString(), canonStats)
	return nil
}

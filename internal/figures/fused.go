package figures

import (
	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/plot"
)

// fusedStudy is E14: the fused scatter/gather transfer engine against
// the staged pipeline it replaces, measured in real (wall-clock) time
// across the paper's layouts.
//
// Each panel compares two engines moving the same message from one
// user layout into another:
//
//   - fused: datatype.FusedCopy — one pass over the pair schedule of
//     the two compiled plans, no staging buffer (the engine behind the
//     sendv rendezvous);
//   - staged: compiled Pack into a staging buffer, compiled Unpack out
//     of it — two passes, the shape of the classic typed rendezvous.
//
// The fused engine's headroom is the paper's point made mechanical:
// the staged pipeline's second pass (and its staging traffic) is pure
// software overhead, and removing it roughly doubles the attainable
// rate for DRAM-resident messages. Each size's note line carries the
// fused sweep's plan counters, which must attribute every fused byte
// to FusedOps/FusedBytes.
func fusedStudy() *Study {
	var panels []Panel
	for _, g := range fusedGeometries {
		panels = append(panels, Panel{Config: plot.Config{
			Title:  g.name + ": fused vs staged transfer bandwidth (GB/s)",
			XLabel: "message bytes", YLabel: "GB/s", LogX: true,
		}, Variant: g.name, Curves: []Curve{{Name: "fused", Label: "fused (one pass, no staging)"},
			{Name: "staged", Label: "staged (pack + unpack)"}}},
			Panel{Config: plot.Config{Title: g.name + " fused-vs-staged per size:"}, Variant: g.name, Note: true})
	}
	return &Study{
		ID: "E14", Name: "fused", Title: "fused-transfer study",
		Detail: wallDetail,
		Sizes:  fixed(256<<10, 1<<20, 8<<20), Real: true, MaxReps: 12,
		Measure: func(r *Result, opt harness.Options) error {
			for _, g := range fusedGeometries {
				for _, n := range r.sizes {
					if err := measureFused(r, g, n, opt.Reps); err != nil {
						return err
					}
				}
				r.printf(g.name, "\n")
			}
			return nil
		},
		Panels: panels,
		Claims: []Claim{{Metric: "fusedSpeedup(x)",
			Line:  "fused transfer is %.2fx the staged pack+unpack on the everyOther->everyThird pair at the largest size\n",
			Value: func(r *Result) float64 { return r.last(per("everyOther->everyThird", "fused", "staged")) },
			Holds: above(0)}},
		Spaced: true,
	}
}

// fusedGeometry describes one study layout: the canonical every-other
// double, the 64-element blocked variant, and an every-third
// destination so the sender and receiver layouts differ (the
// halo-exchange shape the staged pipeline was built for).
type fusedGeometry struct {
	name                string
	srcBlock, srcStride int
	dstBlock, dstStride int
}

var fusedGeometries = []fusedGeometry{
	{"everyOther->contig", 1, 2, 0, 0},     // dstBlock 0 = contiguous destination
	{"everyOther->everyThird", 1, 2, 1, 3}, // layout-to-layout scatter
	{"blocked64->blocked64", 64, 128, 64, 128},
}

// vectorFor builds the committed vector covering n payload bytes with
// the given block/stride (in float64 elements).
func vectorFor(n int64, block, stride int) (*datatype.Type, error) {
	count := int(n) / (block * 8)
	if count < 1 {
		count = 1
	}
	ty, err := datatype.Vector(count, block, stride, datatype.Float64)
	if err != nil {
		return nil, err
	}
	return ty, ty.Commit()
}

// userBlock allocates a pattern-filled buffer covering one instance.
func userBlock(ty *datatype.Type, fill bool) buf.Block {
	b := buf.Alloc(int(ty.Extent()))
	if fill {
		b.FillPattern(0x6B)
	}
	return b
}

// measureFused runs the two engines for one (layout, size) cell.
func measureFused(r *Result, g fusedGeometry, n int64, reps int) error {
	srcTy, err := vectorFor(n, g.srcBlock, g.srcStride)
	if err != nil {
		return err
	}
	srcPlan, err := srcTy.CompilePlan(1)
	if err != nil {
		return err
	}
	src := userBlock(srcTy, true)

	var dstTy *datatype.Type
	if g.dstBlock == 0 {
		dstTy, err = datatype.Contiguous(int(srcTy.Size()/8), datatype.Float64)
		if err == nil {
			err = dstTy.Commit()
		}
	} else {
		dstTy, err = vectorFor(n, g.dstBlock, g.dstStride)
	}
	if err != nil {
		return err
	}
	dstPlan, err := dstTy.CompilePlan(1)
	if err != nil {
		return err
	}
	dst := userBlock(dstTy, false)
	staging := buf.Alloc(int(srcTy.Size()))
	bytes := min(srcPlan.Bytes(), dstPlan.Bytes())

	// Fused: one pass.
	before := datatype.PlanStatsSnapshot()
	fused, err := wall(reps, func() error {
		_, err := datatype.FusedCopy(srcPlan, dstPlan, src, dst)
		return err
	})
	if err != nil {
		return err
	}
	ps := datatype.PlanStatsSnapshot().Sub(before)

	// Staged: compiled pack + compiled unpack through staging.
	staged, err := wall(reps, func() error {
		if _, err := srcPlan.Pack(src, staging); err != nil {
			return err
		}
		return dstPlan.UnpackRange(staging, dst, 0, bytes)
	})
	if err != nil {
		return err
	}

	moved := float64(bytes) * float64(reps)
	f, s := gbps(moved, fused), gbps(moved, staged)
	r.add(Curve{Name: "fused", Variant: g.name}, float64(n), f)
	r.add(Curve{Name: "staged", Variant: g.name}, float64(n), s)
	r.printf(g.name, "  %12d B  fused %6.2f GB/s  staged %6.2f GB/s  fused/staged %.2fx  %v\n", n, f, s, ratio(f, s), ps)
	return nil
}

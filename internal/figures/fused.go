package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// FusedStudy is E14: the fused scatter/gather transfer engine against
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
// rate for DRAM-resident messages.
type FusedStudy struct {
	Profile *perfmodel.Profile
	Reps    int

	// Panels holds one bandwidth comparison per layout.
	Panels []FusedPanel
}

// FusedPanel is one layout's fused/staged comparison.
type FusedPanel struct {
	Layout string
	Sizes  []int64

	Fused, Staged *stats.Series

	// Stats is the plan-counter delta of the fused sweep per size; it
	// must attribute every fused byte to FusedOps/FusedBytes.
	Stats []datatype.PlanStats
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

// fusedStudyMinBytes keeps the measured messages large enough that the
// per-transfer fixed costs don't dominate the timed loop.
const fusedStudyMinBytes = 64 << 10

// BuildFusedStudy measures the two engines for each layout and
// size. Sizes above opt.MaxRealBytes (or under fusedStudyMinBytes)
// are skipped: the study times real byte movement.
func BuildFusedStudy(profileName string, sizes []int64, opt harness.Options) (*FusedStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if opt.Reps == 0 {
		opt.Reps = 12
	}
	if opt.MaxRealBytes == 0 {
		opt.MaxRealBytes = 16 << 20
	}
	st := &FusedStudy{Profile: prof, Reps: opt.Reps}
	for _, g := range fusedGeometries {
		panel := FusedPanel{
			Layout: g.name,
			Fused:  &stats.Series{Label: "fused (one pass, no staging)"},
			Staged: &stats.Series{Label: "staged (pack + unpack)"},
		}
		for _, n := range sizes {
			if n > opt.MaxRealBytes || n < fusedStudyMinBytes {
				continue
			}
			if err := panel.measure(g, n, opt.Reps); err != nil {
				return nil, err
			}
			panel.Sizes = append(panel.Sizes, n)
		}
		if len(panel.Sizes) == 0 {
			return nil, fmt.Errorf("figures: no fused-study sizes at or under MaxRealBytes=%d", opt.MaxRealBytes)
		}
		st.Panels = append(st.Panels, panel)
	}
	return st, nil
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

// measure runs the two engines for one (layout, size) cell.
func (p *FusedPanel) measure(g fusedGeometry, n int64, reps int) error {
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

	moved := float64(min(srcPlan.Bytes(), dstPlan.Bytes())) * float64(reps)

	// Fused: one pass, with attribution checked by the study test.
	before := datatype.PlanStatsSnapshot()
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := datatype.FusedCopy(srcPlan, dstPlan, src, dst); err != nil {
			return err
		}
	}
	fused := time.Since(start).Seconds()
	p.Stats = append(p.Stats, datatype.PlanStatsSnapshot().Sub(before))

	// Staged: compiled pack + compiled unpack through staging.
	start = time.Now()
	for r := 0; r < reps; r++ {
		if _, err := srcPlan.Pack(src, staging); err != nil {
			return err
		}
		if err := dstPlan.UnpackRange(staging, dst, 0, min(srcPlan.Bytes(), dstPlan.Bytes())); err != nil {
			return err
		}
	}
	staged := time.Since(start).Seconds()

	p.Fused.Append(float64(n), gbps(moved, fused))
	p.Staged.Append(float64(n), gbps(moved, staged))
	return nil
}

// Render prints one bandwidth panel per layout plus the fused
// attribution counters, then the closing claim line.
func (st *FusedStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E14 fused-transfer study — %s (%d reps, wall time) ==\n\n", st.Profile.Name, st.Reps)
	for _, p := range st.Panels {
		cfg := plot.Config{
			Title:  fmt.Sprintf("%s: fused vs staged transfer bandwidth (GB/s)", p.Layout),
			XLabel: "message bytes", YLabel: "GB/s", LogX: true,
		}
		if err := plot.ASCII(w, cfg, []*stats.Series{p.Fused, p.Staged}); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s fused-vs-staged per size:\n", p.Layout)
		for i, n := range p.Sizes {
			speed := ratio(p.Fused.Y[i], p.Staged.Y[i])
			fmt.Fprintf(w, "  %12d B  fused %6.2f GB/s  staged %6.2f GB/s  fused/staged %.2fx  %v\n",
				n, p.Fused.Y[i], p.Staged.Y[i], speed, p.Stats[i])
		}
		fmt.Fprintln(w)
	}
	largest := st.Panels[0].Sizes[len(st.Panels[0].Sizes)-1]
	fmt.Fprintf(w, "fused transfer is %.2fx the staged pack+unpack on the everyOther->everyThird pair at the largest size\n\n",
		st.FusedSpeedupAt("everyOther->everyThird", largest))
	return nil
}

// FusedSpeedupAt returns fused/staged bandwidth for the named layout
// at the size closest to n (0 when the layout is unknown).
func (st *FusedStudy) FusedSpeedupAt(layoutName string, n int64) float64 {
	for _, p := range st.Panels {
		if p.Layout == layoutName {
			best, _ := stats.Ratio("", p.Fused, p.Staged).Nearest(float64(n))
			return best
		}
	}
	return 0
}

package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/plot"
	"repro/internal/stats"
)

// CanonStudy is E19: the Commit-time datatype normalizer (the TEMPI
// direction), measured in real (wall-clock) time.
//
// Each panel packs one nested derived type twice — once with the
// normalization pass enabled (the canonical strided-block program,
// executed in closed form) and once with it disabled (the raw
// flattened gather table) — and charts both rates. Alongside the
// bandwidths the study records what the pass actually did to each
// type: the per-instance run count it collapsed, the dimensionality of
// the closed form, the class label of the program, and the
// CanonicalString rendering, so the chart ties the speedup to the IR
// transformation that produced it.
//
// The third family is the deliberate miss: an irregular indexed type
// no closed form matches, where the normalizer can only hoist the
// uniform element size. Its canon-vs-raw ratio near 1 is the study's
// control — the pass helps where a canonical form exists and costs
// nothing where one doesn't.
type CanonStudy struct {
	Reps int

	// Panels holds one canon-vs-raw comparison per type family.
	Panels []CanonPanel
}

// CanonPanel is one type family's normalized/raw comparison.
type CanonPanel struct {
	Layout string
	Sizes  []int64

	Canon, Raw *stats.Series // pack bandwidth, GB/s

	// Per-size attribution of the normalized program: the raw run
	// count the pass collapsed (0 when it fell back to the table),
	// the canonical dimensionality, the class label, and the
	// CanonicalString rendering.
	RawRuns []int64
	Dims    []int
	Classes []string
	Forms   []string

	// Stats is the plan-counter delta of the canon sweep per size; for
	// collapsing families every packed byte must land on BlockOps.
	Stats []datatype.PlanStats
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

// canonStudyMinBytes keeps the measured messages large enough that the
// per-pack fixed costs don't dominate the timed loop.
const canonStudyMinBytes = 64 << 10

// BuildCanonStudy measures normalized-vs-raw pack bandwidth for each
// family and size. Sizes above opt.MaxRealBytes (or under
// canonStudyMinBytes) are skipped: the study times real byte movement.
// The normalization gate is restored on return.
func BuildCanonStudy(sizes []int64, opt harness.Options) (*CanonStudy, error) {
	if opt.Reps == 0 {
		opt.Reps = 12
	}
	if opt.MaxRealBytes == 0 {
		opt.MaxRealBytes = 16 << 20
	}
	prev := datatype.NormalizeEnabled()
	defer datatype.SetNormalize(prev)
	st := &CanonStudy{Reps: opt.Reps}
	for _, g := range canonGeometries {
		panel := CanonPanel{
			Layout: g.name,
			Canon:  &stats.Series{Label: "normalized (canonical program)"},
			Raw:    &stats.Series{Label: "raw (flattened table walk)"},
		}
		for _, n := range sizes {
			if n > opt.MaxRealBytes || n < canonStudyMinBytes {
				continue
			}
			if err := panel.measure(g, n, opt.Reps); err != nil {
				return nil, err
			}
			panel.Sizes = append(panel.Sizes, n)
		}
		if len(panel.Sizes) == 0 {
			return nil, fmt.Errorf("figures: no canon-study sizes at or under MaxRealBytes=%d", opt.MaxRealBytes)
		}
		st.Panels = append(st.Panels, panel)
	}
	return st, nil
}

// canonPackTime builds the geometry's type under the given gate
// setting and times reps compiled packs, returning seconds, the moved
// bytes per pack, and the committed type for attribution.
func canonPackTime(g canonGeometry, n int64, on bool, reps int) (float64, int64, *datatype.Type, error) {
	datatype.SetNormalize(on)
	ty, err := g.build(n)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := ty.Commit(); err != nil {
		return 0, 0, nil, err
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		return 0, 0, nil, err
	}
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(0x19)
	packed := buf.Alloc(int(plan.Bytes()))
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := plan.Pack(src, packed); err != nil {
			return 0, 0, nil, err
		}
	}
	return time.Since(start).Seconds(), plan.Bytes(), ty, nil
}

// measure runs both gate settings for one (family, size) cell.
func (p *CanonPanel) measure(g canonGeometry, n int64, reps int) error {
	before := datatype.PlanStatsSnapshot()
	canonSecs, moved, ty, err := canonPackTime(g, n, true, reps)
	if err != nil {
		return err
	}
	p.Stats = append(p.Stats, datatype.PlanStatsSnapshot().Sub(before))

	rawSecs, _, _, err := canonPackTime(g, n, false, reps)
	if err != nil {
		return err
	}

	plan, err := ty.CompilePlan(1)
	if err != nil {
		return err
	}
	_, rawRuns, dims := plan.Canon()
	p.RawRuns = append(p.RawRuns, rawRuns)
	p.Dims = append(p.Dims, dims)
	p.Classes = append(p.Classes, plan.KernelClass().String())
	p.Forms = append(p.Forms, ty.CanonicalString())

	bw := func(secs float64) float64 {
		if secs <= 0 {
			return 0
		}
		return float64(moved) * float64(reps) / secs / 1e9
	}
	p.Canon.Append(float64(n), bw(canonSecs))
	p.Raw.Append(float64(n), bw(rawSecs))
	return nil
}

// Render prints one bandwidth panel per family plus the canonical-form
// attribution lines.
func (st *CanonStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E19 canonical-normalizer study (%d reps, wall time) ==\n\n", st.Reps)
	for _, p := range st.Panels {
		cfg := plot.Config{
			Title:  fmt.Sprintf("%s: normalized vs raw pack bandwidth (GB/s)", p.Layout),
			XLabel: "message bytes", YLabel: "GB/s", LogX: true,
		}
		if err := plot.ASCII(w, cfg, []*stats.Series{p.Canon, p.Raw}); err != nil {
			return err
		}
		fmt.Fprintf(w, "%s per size:\n", p.Layout)
		for i, n := range p.Sizes {
			speed := 0.0
			if p.Raw.Y[i] > 0 {
				speed = p.Canon.Y[i] / p.Raw.Y[i]
			}
			reduction := "table kept (uniform hoist)"
			if p.RawRuns[i] > 0 {
				reduction = fmt.Sprintf("runs %d→%d (block%dd)", p.RawRuns[i], p.Dims[i], p.Dims[i])
			}
			fmt.Fprintf(w, "  %12d B  canon %6.2f GB/s  raw %6.2f GB/s  canon/raw %.2fx  class %s  %s\n",
				n, p.Canon.Y[i], p.Raw.Y[i], speed, p.Classes[i], reduction)
			fmt.Fprintf(w, "                 %s  %v\n", p.Forms[i], p.Stats[i])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// CanonSpeedupAt returns normalized/raw bandwidth for the named family
// at the size closest to n (0 when the family is unknown).
func (st *CanonStudy) CanonSpeedupAt(layoutName string, n int64) float64 {
	for _, p := range st.Panels {
		if p.Layout != layoutName {
			continue
		}
		best, bestDist := 0.0, int64(-1)
		for i := range p.Sizes {
			d := p.Sizes[i] - n
			if d < 0 {
				d = -d
			}
			if (bestDist < 0 || d < bestDist) && p.Raw.Y[i] > 0 {
				bestDist = d
				best = p.Canon.Y[i] / p.Raw.Y[i]
			}
		}
		return best
	}
	return 0
}

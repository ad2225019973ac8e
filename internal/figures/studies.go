package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// EagerStudy is E5 (§4.5): behaviour around the eager limit, and the
// effect of raising the limit beyond the maximum message size.
type EagerStudy struct {
	Profile *perfmodel.Profile
	// Default and Raised hold per-scheme time series with the
	// profile's eager limit and with the limit raised above the
	// largest message.
	Default []*stats.Series
	Raised  []*stats.Series
	Sizes   []int64
}

// BuildEagerStudy sweeps sizes bracketing the eager limit for the
// reference, vector-type and packing(v) schemes, then repeats with the
// limit raised over the maximum size.
func BuildEagerStudy(profileName string, opt harness.Options) (*EagerStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	limit := prof.EagerLimit
	sizes := []int64{}
	for _, f := range []float64{0.25, 0.5, 0.8, 1.0, 1.2, 1.6, 2.0, 2.4, 4, 8, 64, 1024} {
		n := int64(f*float64(limit)) / 8 * 8
		if n >= 8 {
			sizes = append(sizes, n)
		}
	}
	st := &EagerStudy{Profile: prof, Sizes: sizes}
	schemes := []core.Scheme{core.Reference, core.VectorType, core.PackVector}
	for pass := 0; pass < 2; pass++ {
		o := opt
		if pass == 1 {
			o.EagerLimitOverride = sizes[len(sizes)-1] * 4
		}
		grid, err := harness.MeasureGrid(prof, schemes, harness.Workloads(sizes, o), o)
		if err != nil {
			return nil, err
		}
		for i, s := range schemes {
			series := &stats.Series{Label: s.String()}
			for _, m := range grid[i] {
				// Per-byte time exposes the drop at the protocol
				// switch better than absolute time.
				series.Append(float64(m.Bytes), m.Time()/float64(m.Bytes)*1e9)
			}
			if pass == 0 {
				st.Default = append(st.Default, series)
			} else {
				st.Raised = append(st.Raised, series)
			}
		}
	}
	return st, nil
}

// Render prints the two passes side by side.
func (st *EagerStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E5 eager limit study — %s (limit %d bytes) ==\n\n", st.Profile.Name, st.Profile.EagerLimit)
	cfg := plot.Config{Title: "ns per byte, default eager limit", XLabel: "message bytes", YLabel: "ns/B", LogX: true, LogY: true}
	if err := plot.ASCII(w, cfg, st.Default); err != nil {
		return err
	}
	cfg.Title = "ns per byte, eager limit raised over max size"
	if err := plot.ASCII(w, cfg, st.Raised); err != nil {
		return err
	}
	return nil
}

// LargeUnchangedByRaisedLimit reports the relative change of the
// largest message's reference time when the eager limit is raised —
// the paper found "this did not appreciably change the results for
// large messages".
func (st *EagerStudy) LargeUnchangedByRaisedLimit() float64 {
	d := st.Default[0]
	r := st.Raised[0]
	if d.Len() == 0 || r.Len() == 0 {
		return 0
	}
	a := d.Y[d.Len()-1]
	b := r.Y[r.Len()-1]
	if a == 0 {
		return 0
	}
	diff := (b - a) / a
	if diff < 0 {
		diff = -diff
	}
	return diff
}

// CacheStudy is E6 (§4.6): the effect of not flushing caches between
// ping-pongs.
type CacheStudy struct {
	Profile *perfmodel.Profile
	Flushed []*stats.Series // time per scheme with inter-ping-pong flush
	Warm    []*stats.Series // without flushing
	Speedup *stats.Series   // flushed/warm time ratio for the copying scheme
}

// BuildCacheStudy measures intermediate sizes with and without the
// 50 M-array rewrite between ping-pongs.
func BuildCacheStudy(profileName string, opt harness.Options) (*CacheStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	sizes := harness.LogSizes(10_000, 20_000_000, 2)
	st := &CacheStudy{Profile: prof}
	schemes := []core.Scheme{core.Copying, core.VectorType, core.PackVector}
	for pass := 0; pass < 2; pass++ {
		o := opt
		o.FlushCache = pass == 0
		grid, err := harness.MeasureGrid(prof, schemes, harness.Workloads(sizes, o), o)
		if err != nil {
			return nil, err
		}
		for i, s := range schemes {
			series := &stats.Series{Label: s.String()}
			for _, m := range grid[i] {
				series.Append(float64(m.Bytes), m.Time())
			}
			if pass == 0 {
				st.Flushed = append(st.Flushed, series)
			} else {
				st.Warm = append(st.Warm, series)
			}
		}
	}
	st.Speedup = stats.Ratio("copying flush/warm", st.Flushed[0], st.Warm[0])
	return st, nil
}

// Render prints the warm-vs-flushed comparison.
func (st *CacheStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E6 cache flushing study — %s ==\n\n", st.Profile.Name)
	if err := plot.ASCII(w, plot.Config{Title: "time, caches flushed between ping-pongs", XLabel: "bytes", YLabel: "sec", LogX: true, LogY: true}, st.Flushed); err != nil {
		return err
	}
	if err := plot.ASCII(w, plot.Config{Title: "time, caches left warm", XLabel: "bytes", YLabel: "sec", LogX: true, LogY: true}, st.Warm); err != nil {
		return err
	}
	return plot.ASCII(w, plot.Config{Title: "copying speedup from warm caches (x)", XLabel: "bytes", YLabel: "x", LogX: true}, []*stats.Series{st.Speedup})
}

// SpacingStudy is the §4.7 stride-irregularity prediction (E7): less
// regular spacing hurts through reduced prefetch effectiveness.
type SpacingStudy struct {
	Profile *perfmodel.Profile
	Jitters []float64
	// Times per scheme: index matches Jitters.
	Times map[core.Scheme][]float64
}

// BuildSpacingStudy measures a fixed payload under increasing gap
// jitter for the copying and derived-type schemes.
func BuildSpacingStudy(profileName string, payloadBytes int64, opt harness.Options) (*SpacingStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	st := &SpacingStudy{
		Profile: prof,
		Jitters: []float64{0, 0.25, 0.5, 0.75, 1.0},
		Times:   map[core.Scheme][]float64{},
	}
	schemes := []core.Scheme{core.Copying, core.VectorType}
	for _, j := range st.Jitters {
		w := core.ForBytes(payloadBytes)
		w.Stride = 8 // wider gaps leave room for element-aligned jitter
		w.Jitter = j
		w.Virtual = payloadBytes > opt.MaxRealBytes
		if err := appendCellTimes(st.Times, prof, schemes, w, opt); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Render prints the jitter table.
func (st *SpacingStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E7 spacing irregularity study — %s ==\n", st.Profile.Name)
	series := []*stats.Series{}
	for _, s := range []core.Scheme{core.Copying, core.VectorType} {
		sr := &stats.Series{Label: s.String()}
		for i, j := range st.Jitters {
			sr.Append(j, st.Times[s][i])
		}
		series = append(series, sr)
	}
	return plot.Table(w, "jitter", series)
}

// BlockSizeStudy is the §4.7 block-size prediction (E8): larger blocks
// perform better through higher cache-line utilisation.
type BlockSizeStudy struct {
	Profile   *perfmodel.Profile
	BlockLens []int
	Times     map[core.Scheme][]float64
}

// BuildBlockSizeStudy measures a fixed payload at constant density 1/2
// with growing block length.
func BuildBlockSizeStudy(profileName string, payloadBytes int64, opt harness.Options) (*BlockSizeStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	st := &BlockSizeStudy{
		Profile:   prof,
		BlockLens: []int{1, 2, 4, 8, 16, 32, 64},
		Times:     map[core.Scheme][]float64{},
	}
	elems := int(payloadBytes / core.ElemSize)
	schemes := []core.Scheme{core.Copying, core.VectorType}
	for _, bl := range st.BlockLens {
		w := core.Workload{
			Count:    elems / bl,
			BlockLen: bl,
			Stride:   2 * bl, // density stays 1/2
			Virtual:  payloadBytes > opt.MaxRealBytes,
		}
		if err := appendCellTimes(st.Times, prof, schemes, w, opt); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// appendCellTimes measures one workload under every scheme, each cell
// in a world of its own, and appends each scheme's time to its row.
func appendCellTimes(times map[core.Scheme][]float64, prof *perfmodel.Profile, schemes []core.Scheme, w core.Workload, opt harness.Options) error {
	grid, err := harness.MeasureGrid(prof, schemes, []core.Workload{w}, opt)
	if err != nil {
		return err
	}
	for i, s := range schemes {
		times[s] = append(times[s], grid[i][0].Time())
	}
	return nil
}

// Render prints the block-size table.
func (st *BlockSizeStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E8 block size study — %s ==\n", st.Profile.Name)
	series := []*stats.Series{}
	for _, s := range []core.Scheme{core.Copying, core.VectorType} {
		sr := &stats.Series{Label: s.String()}
		for i, bl := range st.BlockLens {
			sr.Append(float64(bl), st.Times[s][i])
		}
		series = append(series, sr)
	}
	return plot.Table(w, "blocklen", series)
}

// NodeScalingStudy is the §4.7 all-processes-per-node test (E9): with
// p pairs communicating simultaneously, per-pair performance must not
// degrade.
type NodeScalingStudy struct {
	Profile *perfmodel.Profile
	Pairs   []int
	Times   []float64 // pair-0 ping-pong time per configuration
	Bytes   int64
}

// BuildNodeScalingStudy runs 1…maxPairs concurrent ping-pong pairs on
// split communicators and reports pair 0's time.
func BuildNodeScalingStudy(profileName string, maxPairs int, payloadBytes int64, reps int) (*NodeScalingStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	st := &NodeScalingStudy{Profile: prof, Bytes: payloadBytes}
	for pairs := 1; pairs <= maxPairs; pairs++ {
		var t0 float64
		w := core.ForBytes(payloadBytes)
		w.Virtual = true
		err := mpi.Run(2*pairs, mpi.Options{Profile: prof, WallLimit: 2 * time.Minute}, func(c *mpi.Comm) error {
			pair, err := c.Split(c.Rank()/2, c.Rank()%2)
			if err != nil {
				return err
			}
			runner, err := core.NewRunner(core.VectorType)
			if err != nil {
				return err
			}
			if err := runner.Setup(pair, w, 1-pair.Rank()); err != nil {
				return err
			}
			pair.Barrier()
			start := pair.Wtime()
			for rep := 0; rep < reps; rep++ {
				if pair.Rank() == 0 {
					if err := runner.Ping(); err != nil {
						return err
					}
				} else if err := runner.Pong(); err != nil {
					return err
				}
			}
			if c.Rank() == 0 {
				t0 = (pair.Wtime() - start) / float64(reps)
			}
			return runner.Teardown()
		})
		if err != nil {
			return nil, err
		}
		st.Pairs = append(st.Pairs, pairs)
		st.Times = append(st.Times, t0)
	}
	return st, nil
}

// Render prints the scaling table.
func (st *NodeScalingStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E9 node scaling study — %s (%d bytes per pair) ==\n", st.Profile.Name, st.Bytes)
	sr := &stats.Series{Label: "pair-0 ping-pong time"}
	for i, p := range st.Pairs {
		sr.Append(float64(p), st.Times[i])
	}
	return plot.Table(w, "pairs", []*stats.Series{sr})
}

// MaxDegradation returns the worst-case relative slowdown of pair 0
// as pairs are added; the paper reports "no performance degradation".
func (st *NodeScalingStudy) MaxDegradation() float64 {
	if len(st.Times) == 0 {
		return 0
	}
	base := st.Times[0]
	worst := 0.0
	for _, t := range st.Times[1:] {
		if d := (t - base) / base; d > worst {
			worst = d
		}
	}
	return worst
}

// CostModelCheck is E10: the §2 cost-model factors at a large size.
type CostModelCheck struct {
	Profile          *perfmodel.Profile
	Bytes            int64
	CopyingSlowdown  float64 // expected ≈3 (§2.2)
	PackVsCopy       float64 // packing(v)/copying time, expected ≈1 (§4.3)
	VectorDegraded   float64 // vector/copying at 10⁹, expected >1 (§4.1)
	BufferedPenalty  float64 // buffered/copying, expected >1 (§4.2)
	PackElementRatio float64 // packing(e)/copying, expected ≫1 (§2.6)
}

// BuildCostModelCheck measures the factor relationships the paper's
// cost model predicts.
func BuildCostModelCheck(profileName string, n int64, opt harness.Options) (*CostModelCheck, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	schemes := []core.Scheme{core.Reference, core.Copying, core.VectorType, core.Buffered, core.PackElement, core.PackVector}
	grid, err := harness.MeasureGrid(prof, schemes, harness.Workloads([]int64{n}, opt), opt)
	if err != nil {
		return nil, err
	}
	times := map[core.Scheme]float64{}
	for i, s := range schemes {
		times[s] = grid[i][0].Time()
	}
	return &CostModelCheck{
		Profile:          prof,
		Bytes:            n,
		CopyingSlowdown:  times[core.Copying] / times[core.Reference],
		PackVsCopy:       times[core.PackVector] / times[core.Copying],
		VectorDegraded:   times[core.VectorType] / times[core.Copying],
		BufferedPenalty:  times[core.Buffered] / times[core.Copying],
		PackElementRatio: times[core.PackElement] / times[core.Copying],
	}, nil
}

// Render prints the factor table with the paper's expectations.
func (ck *CostModelCheck) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E10 cost-model factors — %s at %d bytes ==\n", ck.Profile.Name, ck.Bytes)
	fmt.Fprintf(w, "  copying/reference   = %5.2f   (paper §2.2: ≈3)\n", ck.CopyingSlowdown)
	fmt.Fprintf(w, "  packing(v)/copying  = %5.2f   (paper §4.3: ≈1)\n", ck.PackVsCopy)
	fmt.Fprintf(w, "  vector/copying      = %5.2f   (paper §4.1: >1 at large sizes)\n", ck.VectorDegraded)
	fmt.Fprintf(w, "  buffered/copying    = %5.2f   (paper §4.2: >1)\n", ck.BufferedPenalty)
	fmt.Fprintf(w, "  packing(e)/copying  = %5.2f   (paper §2.6: ≫1)\n", ck.PackElementRatio)
	return nil
}

// PackPlanStudy is E12: compiled-vs-interpreted pack bandwidth — the
// packing(v) column (generic interpretation at pack time) against the
// packing(c) column (compiled pack plan), with the plan-engine
// counters of every compiled cell.
type PackPlanStudy struct {
	Profile *perfmodel.Profile
	Sizes   []int64

	// Interpreted and Compiled are the effective bandwidths (GB/s) of
	// packing(v) and packing(c); Speedup is their time ratio
	// (interpreted / compiled, >1 when compiling wins).
	Interpreted *stats.Series
	Compiled    *stats.Series
	Speedup     *stats.Series

	// PlanStats holds the per-size plan-engine counter deltas of the
	// compiled sweep: which kernels executed and whether the parallel
	// splitter engaged.
	PlanStats []datatype.PlanStats
}

// BuildPackPlanStudy sweeps the canonical workload over sizes for the
// interpreted and compiled pack schemes.
func BuildPackPlanStudy(profileName string, sizes []int64, opt harness.Options) (*PackPlanStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	st := &PackPlanStudy{
		Profile:     prof,
		Sizes:       sizes,
		Interpreted: &stats.Series{Label: core.PackVector.String()},
		Compiled:    &stats.Series{Label: core.PackCompiled.String()},
	}
	grid, err := harness.MeasureGrid(prof, []core.Scheme{core.PackVector, core.PackCompiled}, harness.Workloads(sizes, opt), opt)
	if err != nil {
		return nil, err
	}
	interp, compiled := grid[0], grid[1]
	for i := range interp {
		st.Interpreted.Append(float64(interp[i].Bytes), interp[i].Bandwidth()/1e9)
		st.Compiled.Append(float64(compiled[i].Bytes), compiled[i].Bandwidth()/1e9)
		st.PlanStats = append(st.PlanStats, compiled[i].PlanStats)
	}
	// Bandwidth ratio compiled/interpreted: >1 means compiling wins.
	st.Speedup = stats.Ratio("speedup", st.Compiled, st.Interpreted)
	return st, nil
}

// Render prints the two bandwidth curves, the speedup, and the kernel
// attribution of the compiled sweep.
func (st *PackPlanStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E12 pack-plan compiler study — %s ==\n\n", st.Profile.Name)
	cfg := plot.Config{Title: "pack bandwidth, interpreted vs compiled (GB/s)", XLabel: "message bytes", YLabel: "GB/s", LogX: true}
	if err := plot.ASCII(w, cfg, []*stats.Series{st.Interpreted, st.Compiled}); err != nil {
		return err
	}
	if err := plot.ASCII(w, plot.Config{Title: "compiled speedup (x)", XLabel: "message bytes", YLabel: "x", LogX: true}, []*stats.Series{st.Speedup}); err != nil {
		return err
	}
	fmt.Fprintln(w, "kernel attribution per size (compiled sweep):")
	for i, ps := range st.PlanStats {
		fmt.Fprintf(w, "  %12d B  %v\n", st.Sizes[i], ps)
	}
	return nil
}

// CompiledSpeedupAt returns the compiled/interpreted speedup at the
// sweep size closest to n bytes.
func (st *PackPlanStudy) CompiledSpeedupAt(n int64) float64 {
	best, bestDist := 0.0, int64(-1)
	for i, x := range st.Speedup.X {
		d := int64(x) - n
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist, best = d, st.Speedup.Y[i]
		}
	}
	return best
}

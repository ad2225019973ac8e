package figures

import (
	"fmt"
	"io"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/perfmodel"
	"repro/internal/plot"
	"repro/internal/stats"
)

// PlanCacheStudy is E13: the steady-state value of the pack-plan
// cache and the compiled-chunked streaming tier, measured in real
// (wall-clock) time on the canonical every-other-double layout.
//
// The cold curve pays the full per-message software stack the paper
// blames for non-contiguous overhead — type construction, commit-time
// flattening, plan compilation — on every pack; the warm curve reuses
// one committed type so every pack is a plan-cache hit executing the
// stride kernel. The chunked curve streams the same message in 64 KiB
// pieces through a Packer, each piece entering the compiled kernels
// mid-stream.
type PlanCacheStudy struct {
	Profile *perfmodel.Profile
	Sizes   []int64
	Reps    int

	// Cold and Warm are pack bandwidths (GB/s): cold rebuilds and
	// recompiles the type per pack, warm runs entirely from the plan
	// cache.
	Cold, Warm *stats.Series

	// Chunked is the chunked-streaming bandwidth (GB/s) on the
	// compiled-chunked tier.
	Chunked *stats.Series

	// HitRates is the warm pass's plan-cache hit rate per size, and
	// WarmStats the full counter deltas (which must show zero
	// compilations in steady state).
	HitRates  []float64
	WarmStats []datatype.PlanStats
}

// planCacheChunk is the streaming granularity of the chunked panels,
// matching the profiles' internal chunk order of magnitude.
const planCacheChunk = 64 << 10

// BuildPlanCacheStudy measures cold-vs-warm plan-cache pack bandwidth
// and compiled chunked streaming for each size. Sizes above
// opt.MaxRealBytes are skipped: this study times real byte movement.
func BuildPlanCacheStudy(profileName string, sizes []int64, opt harness.Options) (*PlanCacheStudy, error) {
	prof, err := perfmodel.ByName(profileName)
	if err != nil {
		return nil, err
	}
	if opt.Reps == 0 {
		opt.Reps = 20
	}
	if opt.MaxRealBytes == 0 {
		opt.MaxRealBytes = 16 << 20
	}
	st := &PlanCacheStudy{
		Profile: prof,
		Reps:    opt.Reps,
		Cold:    &stats.Series{Label: "cold (construct+commit+compile+pack)"},
		Warm:    &stats.Series{Label: "warm (plan-cache hit)"},
		Chunked: &stats.Series{Label: "chunked, compiled"},
	}
	for _, n := range sizes {
		if n > opt.MaxRealBytes || n < 2*core.ElemSize {
			continue
		}
		if err := st.measureSize(n, opt.Reps); err != nil {
			return nil, err
		}
		st.Sizes = append(st.Sizes, n)
	}
	if len(st.Sizes) == 0 {
		return nil, fmt.Errorf("figures: no plan-cache sizes at or under MaxRealBytes=%d", opt.MaxRealBytes)
	}
	return st, nil
}

// measureSize runs the three measurements for one payload size.
func (st *PlanCacheStudy) measureSize(n int64, reps int) error {
	count := int(n / core.ElemSize)
	ty, err := datatype.Vector(count, 1, 2, datatype.Float64)
	if err != nil {
		return err
	}
	if err := ty.Commit(); err != nil {
		return err
	}
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(0x5C)
	dst := buf.Alloc(int(ty.Size()))

	// Cold: the whole software stack per pack.
	coldStart := time.Now()
	for r := 0; r < reps; r++ {
		cty, err := datatype.Vector(count, 1, 2, datatype.Float64)
		if err != nil {
			return err
		}
		if err := cty.Commit(); err != nil {
			return err
		}
		plan, err := cty.CompilePlan(1)
		if err != nil {
			return err
		}
		if _, err := plan.Pack(src, dst); err != nil {
			return err
		}
	}
	cold := time.Since(coldStart).Seconds()

	// Warm: steady state, every pack a cache hit.
	if _, err := ty.CompilePlan(1); err != nil { // prime the count binding
		return err
	}
	warmBefore := datatype.PlanStatsSnapshot()
	warmStart := time.Now()
	for r := 0; r < reps; r++ {
		plan, err := ty.CompilePlan(1)
		if err != nil {
			return err
		}
		if _, err := plan.Pack(src, dst); err != nil {
			return err
		}
	}
	warm := time.Since(warmStart).Seconds()
	delta := datatype.PlanStatsSnapshot().Sub(warmBefore)

	// Chunked streaming on the compiled-chunked tier.
	chunkStart := time.Now()
	for r := 0; r < reps; r++ {
		p, err := ty.NewPacker(src, 1)
		if err != nil {
			return err
		}
		for p.Remaining() > 0 {
			sz := min(p.Remaining(), planCacheChunk)
			if _, err := p.Pack(dst.Slice(0, int(sz))); err != nil {
				return err
			}
		}
	}
	chunked := time.Since(chunkStart).Seconds()

	moved := float64(n) * float64(reps)
	st.Cold.Append(float64(n), gbps(moved, cold))
	st.Warm.Append(float64(n), gbps(moved, warm))
	st.Chunked.Append(float64(n), gbps(moved, chunked))
	st.HitRates = append(st.HitRates, delta.HitRate())
	st.WarmStats = append(st.WarmStats, delta)
	return nil
}

// Render prints the two bandwidth panels and the per-size cache
// counters, then the closing claim line.
func (st *PlanCacheStudy) Render(w io.Writer) error {
	fmt.Fprintf(w, "== E13 plan-cache study — %s (%d reps, wall time) ==\n\n", st.Profile.Name, st.Reps)
	cfg := plot.Config{Title: "whole-message pack bandwidth, cold vs warm plan cache (GB/s)", XLabel: "message bytes", YLabel: "GB/s", LogX: true}
	if err := plot.ASCII(w, cfg, []*stats.Series{st.Cold, st.Warm}); err != nil {
		return err
	}
	cfg.Title = "chunked streaming bandwidth, compiled kernels (GB/s)"
	if err := plot.ASCII(w, cfg, []*stats.Series{st.Chunked}); err != nil {
		return err
	}
	fmt.Fprintln(w, "plan-cache behaviour per size (warm sweep):")
	for i, n := range st.Sizes {
		fmt.Fprintf(w, "  %12d B  hit rate %.2f  %v\n", n, st.HitRates[i], st.WarmStats[i])
	}
	fmt.Fprintf(w, "warm plan cache is %.2fx cold compile at the largest size (steady state clean: %v)\n\n",
		st.WarmSpeedupAt(st.Sizes[len(st.Sizes)-1]), st.SteadyStateClean())
	return nil
}

// WarmSpeedupAt returns warm/cold bandwidth at the size closest to n.
func (st *PlanCacheStudy) WarmSpeedupAt(n int64) float64 {
	best, _ := stats.Ratio("", st.Warm, st.Cold).Nearest(float64(n))
	return best
}

// SteadyStateClean reports whether every warm sweep ran without a
// single program compilation and with a perfect (or empty) hit rate.
func (st *PlanCacheStudy) SteadyStateClean() bool {
	for _, d := range st.WarmStats {
		if d.Compiled != 0 || d.PlanMisses != 0 {
			return false
		}
	}
	return true
}

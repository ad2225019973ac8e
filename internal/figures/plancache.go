package figures

import (
	"fmt"
	"time"

	"repro/internal/buf"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/harness"
	"repro/internal/plot"
	"repro/internal/stats"
)

// planCacheStudy is E13: the steady-state value of the pack-plan cache
// and the compiled-chunked streaming tier, measured in real
// (wall-clock) time on the canonical every-other-double layout.
//
// The cold curve pays the full per-message software stack the paper
// blames for non-contiguous overhead — type construction, commit-time
// flattening, plan compilation — on every pack; the warm curve reuses
// one committed type so every pack is a plan-cache hit executing the
// stride kernel. The chunked curve streams the same message in 64 KiB
// pieces through Plan.PackChunks, each piece entering the compiled
// kernels mid-stream. The misses curve counts the warm sweep's
// compilations and cache misses, which must be zero in steady state.
func planCacheStudy() *Study {
	bw := plot.Config{XLabel: "message bytes", YLabel: "GB/s", LogX: true}
	whole, chunked := bw, bw
	whole.Title = "whole-message pack bandwidth, cold vs warm plan cache (GB/s)"
	chunked.Title = "chunked streaming bandwidth, compiled kernels (GB/s)"
	speedup := per("", "warm", "cold")
	return &Study{
		ID: "E13", Name: "plancache", Title: "plan-cache study",
		Detail: wallDetail,
		Sizes:  fixed(64<<10, 1<<20, 8<<20), Real: true, MaxReps: 12,
		Measure: measurePlanCache,
		Panels: []Panel{
			{Config: whole, Curves: []Curve{{Name: "cold", Label: "cold (construct+commit+compile+pack)"},
				{Name: "warm", Label: "warm (plan-cache hit)"}}},
			{Config: chunked, Curves: []Curve{{Name: "chunked", Label: "chunked, compiled"}}},
			{Config: plot.Config{Title: "plan-cache behaviour per size (warm sweep):"}, Note: true},
		},
		Claims: []Claim{{Metric: "warmSpeedup(x)",
			Line: "warm plan cache is %.2fx cold compile at the largest size (steady state clean: %v)\n",
			Args: func(r *Result) []any {
				return []any{r.last(speedup), stats.Max(r.Series(Curve{Name: "misses"}).Y) == 0}
			},
			Value: func(r *Result) float64 { return r.last(speedup) },
			Holds: above(0),
		}, {Metric: "steadyStateMisses",
			Value: func(r *Result) float64 { return stats.Max(r.Series(Curve{Name: "misses"}).Y) },
			Holds: atMost(0)}},
		Spaced: true,
	}
}

// wallDetail is the header detail of the wall-clock studies.
func wallDetail(r *Result) string { return fmt.Sprintf(" (%d reps, wall time)", r.opt.Reps) }

// wall times reps calls of f, in seconds.
func wall(reps int, f func() error) (float64, error) {
	start := time.Now()
	for range reps {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// planCacheChunk is the streaming granularity of the chunked panel,
// matching the profiles' internal chunk order of magnitude.
const planCacheChunk = 64 << 10

// measurePlanCache runs the three measurements for each payload size.
func measurePlanCache(r *Result, opt harness.Options) error {
	for _, n := range r.sizes {
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
		cold, err := wall(opt.Reps, func() error {
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
			_, err = plan.Pack(src, dst)
			return err
		})
		if err != nil {
			return err
		}

		// Warm: steady state, every pack a cache hit.
		if _, err := ty.CompilePlan(1); err != nil { // prime the count binding
			return err
		}
		before := datatype.PlanStatsSnapshot()
		warm, err := wall(opt.Reps, func() error {
			plan, err := ty.CompilePlan(1)
			if err != nil {
				return err
			}
			_, err = plan.Pack(src, dst)
			return err
		})
		if err != nil {
			return err
		}
		delta := datatype.PlanStatsSnapshot().Sub(before)

		// Chunked streaming on the compiled-chunked tier.
		chunked, err := wall(opt.Reps, func() error {
			plan, err := ty.CompilePlan(1)
			if err != nil {
				return err
			}
			return plan.PackChunks(src, dst, 0, plan.Bytes(), planCacheChunk, 0, nil)
		})
		if err != nil {
			return err
		}

		x, moved := float64(n), float64(n)*float64(opt.Reps)
		r.add(Curve{Name: "cold"}, x, gbps(moved, cold))
		r.add(Curve{Name: "warm"}, x, gbps(moved, warm))
		r.add(Curve{Name: "chunked"}, x, gbps(moved, chunked))
		r.add(Curve{Name: "misses"}, x, float64(delta.Compiled+delta.PlanMisses))
		r.printf("", "  %12d B  hit rate %.2f  %v\n", n, delta.HitRate(), delta)
	}
	return nil
}

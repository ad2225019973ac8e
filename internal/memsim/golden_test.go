package memsim_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
)

// The golden rows pin the Kernel-spec'd pricers to the fourteen
// exported pricers they replaced (plain, compiled and normalized
// gather/scatter, each serial and parallel; the serial and parallel
// fused copy; the fused and staged collective legs):
// math.Float64bits of each, recorded from the parent commit (46e68fa)
// over the four paper profiles × three layouts × workers {1,2,3,4,16}
// (3 because dividing by a power of two is exact in any operation
// order), on a disabled cache, on a cold one (the first call on a fresh
// State) and on a warm one (the same call repeated on that State, so
// the warmth the first call left behind is pinned too). The store
// holds one block per profile, "kernel-costs.<profile>", and the block
// "kernel-costs" that lists them; a row is
// "<layout> <cache> <pricer>" and the bits in hex, one value for a
// serial pricer and one per worker count for a parallel one.
// "StagedLeg" is the staged collective leg as core priced it (one
// region throughout), "StagedSum" the compiled gather src→staging plus
// compiled scatter staging→dst that mpi's typedSelfCopy summed by
// hand; "FusedDense" is the fused copy into a contiguous destination.

var goldenWorkers = [5]int{1, 2, 3, 4, 16}

var goldenLayouts = []struct {
	name string
	st   layout.Stats
}{
	{"every-other-double", oracle.Stats(layout.Jittered(1<<17, 8, 16, 0))},
	{"4-run-block", oracle.Stats(layout.Jittered(1<<12, 32, 256, 0))},
	{"irregular", oracle.Stats(layout.Jittered(1<<12, 8, 96, 0.5))},
}

type pricer func(s *memsim.State) float64

func TestKernelCostsGolden(t *testing.T) {
	const src, staging, dst = buf.Region(1), buf.Region(3), buf.Region(2)
	var blocks []string
	for _, profile := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		p, err := perfmodel.ByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, gl := range goldenLayouts {
			st := gl.st
			d := layout.Dense(st.Bytes)
			gather := func(k memsim.Kernel) pricer {
				return func(s *memsim.State) float64 { return s.GatherCost(src, dst, st, k) }
			}
			scatter := func(k memsim.Kernel) pricer {
				return func(s *memsim.State) float64 { return s.ScatterCost(src, dst, st, k) }
			}
			fused := func(dstSt layout.Stats, w int) pricer {
				return func(s *memsim.State) float64 { return s.FusedCopyCost(src, dst, st, dstSt, w) }
			}
			compiled := memsim.Kernel{Engine: memsim.Compiled}
			normalized := memsim.Kernel{Engine: memsim.Normalized}
			serial := []struct {
				name string
				f    pricer
			}{
				{"Gather", gather(memsim.Kernel{})}, {"Scatter", scatter(memsim.Kernel{})},
				{"CompiledGather", gather(compiled)}, {"CompiledScatter", scatter(compiled)},
				{"NormalizedGather", gather(normalized)}, {"NormalizedScatter", scatter(normalized)},
				{"Fused", fused(st, 0)}, {"FusedDense", fused(d, 0)},
				{"StagedLeg", func(s *memsim.State) float64 { return s.StagedCollectiveLegCost(src, src, src, st, st) }},
				{"StagedSum", func(s *memsim.State) float64 { return s.StagedCollectiveLegCost(src, staging, dst, st, st) }},
			}
			parallel := []struct {
				name string
				at   func(w int) pricer
			}{
				{"ParallelCompiledGather", func(w int) pricer { return gather(memsim.Kernel{Engine: memsim.Compiled, Workers: w}) }},
				{"ParallelCompiledScatter", func(w int) pricer { return scatter(memsim.Kernel{Engine: memsim.Compiled, Workers: w}) }},
				{"ParallelNormalizedGather", func(w int) pricer { return gather(memsim.Kernel{Engine: memsim.Normalized, Workers: w}) }},
				{"ParallelNormalizedScatter", func(w int) pricer { return scatter(memsim.Kernel{Engine: memsim.Normalized, Workers: w}) }},
				{"ParallelFused", func(w int) pricer { return fused(st, w) }},
				{"ParallelFusedDense", func(w int) pricer { return fused(d, w) }},
				{"FusedLeg", func(w int) pricer { return fused(st, w) }},
			}
			for _, cache := range []string{"disabled", "cold", "warm"} {
				bits := func(f pricer) string {
					s := memsim.NewState(&p.Mem)
					s.SetDisabled(cache == "disabled")
					got := f(s)
					if cache == "warm" {
						got = f(s)
					}
					return fmt.Sprintf("%016x", math.Float64bits(got))
				}
				for _, sp := range serial {
					rows = append(rows, fmt.Sprintf("%s %s %s %s", gl.name, cache, sp.name, bits(sp.f)))
				}
				for _, pp := range parallel {
					vals := make([]string, len(goldenWorkers))
					for i, w := range goldenWorkers {
						vals[i] = bits(pp.at(w))
					}
					rows = append(rows, fmt.Sprintf("%s %s %s %s", gl.name, cache, pp.name, strings.Join(vals, " ")))
				}
			}
		}
		blocks = append(blocks, "kernel-costs."+profile)
		oracle.Golden(t, blocks[len(blocks)-1], rows)
	}
	oracle.Golden(t, "kernel-costs", blocks)
}

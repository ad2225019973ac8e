package mpi

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/vclock"
)

// packWindow validates the preamble shared by every explicit
// pack/unpack entry point — non-negative count, the packed byte count,
// and the position window inside the packed buffer — and returns the
// window as a sub-block. op names the operation for the error text.
func packWindow(count int, ty *datatype.Type, packed buf.Block, position *int64, op string) (buf.Block, int64, error) {
	if err := checkCount(count, ty); err != nil {
		return buf.Block{}, 0, err
	}
	need := ty.PackSize(count)
	if *position < 0 || *position+need > int64(packed.Len()) {
		return buf.Block{}, 0, fmt.Errorf("%w: %s of %d bytes at position %d in %d-byte buffer",
			datatype.ErrTruncate, op, need, *position, packed.Len())
	}
	return packed.Slice(int(*position), int(need)), need, nil
}

// Pack gathers count instances of a datatype from b into outbuf
// starting at *position, advancing *position — the signature shape of
// MPI_Pack. One call costs one PackCallOverhead plus the gather loop,
// which is why packing a whole vector datatype (packing(v)) costs the
// same as a manual copy (§4.3) while packing element by element
// (packing(e)) drowns in call overhead (§2.6).
func (c *Comm) Pack(b buf.Block, count int, ty *datatype.Type, outbuf buf.Block, position *int64) error {
	dst, need, err := packWindow(count, ty, outbuf, position, "pack")
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	cost := c.prof.PackCallOverhead + c.cache.GatherCost(b.Region(), outbuf.Region(), st, memsim.Kernel{})
	c.clock.Advance(vclock.FromSeconds(cost))
	if _, err := ty.Pack(b, count, dst); err != nil {
		return err
	}
	*position += need
	return nil
}

// Unpack is the inverse of Pack, like MPI_Unpack.
func (c *Comm) Unpack(inbuf buf.Block, position *int64, b buf.Block, count int, ty *datatype.Type) error {
	src, need, err := packWindow(count, ty, inbuf, position, "unpack")
	if err != nil {
		return err
	}
	st := ty.Stats(count)
	cost := c.prof.PackCallOverhead + c.cache.ScatterCost(inbuf.Region(), b.Region(), st, memsim.Kernel{})
	c.clock.Advance(vclock.FromSeconds(cost))
	if _, err := ty.Unpack(src, count, b); err != nil {
		return err
	}
	*position += need
	return nil
}

// PackCompiled is Pack through the compiled pack-plan engine: the same
// gather, executed by the plan's specialized kernel instead of generic
// interpretation. The plan comes from the type's cache (compiled at
// Commit, bound per count on first use), so steady-state calls compile
// nothing. The gather is priced with the plan's own kernel spec
// (PlanKernel). This is the "packing(c)" scheme of the figures.
func (c *Comm) PackCompiled(b buf.Block, count int, ty *datatype.Type, outbuf buf.Block, position *int64) error {
	dst, need, err := packWindow(count, ty, outbuf, position, "pack")
	if err != nil {
		return err
	}
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return err
	}
	st := plan.Stats()
	gather := c.cache.GatherCost(b.Region(), outbuf.Region(), st, PlanKernel(plan))
	c.clock.Advance(vclock.FromSeconds(c.prof.PackCallOverhead + gather))
	if _, err := plan.Pack(b, dst); err != nil {
		return err
	}
	*position += need
	return nil
}

// modelledPackWorkers is the pack fan-out KernelFor charges on any host.
const modelledPackWorkers = 2

// KernelFor is the one place a compiled move gets its kernel spec:
// every charge in this package and every price in core goes through it,
// so the model and the engine it prices agree by construction. A
// program the Commit-time normalizer collapsed into a canonical
// strided-block form (datatype.KernelBlock) runs the Normalized engine,
// any other the generic Compiled one: serial below
// datatype.ParallelPackThreshold, across modelledPackWorkers from it on.
func KernelFor(normalized bool, bytes int64) memsim.Kernel {
	k := memsim.Kernel{Engine: memsim.Compiled, Workers: 1}
	if bytes >= datatype.ParallelPackThreshold {
		k.Workers = modelledPackWorkers
	}
	if normalized {
		k.Engine = memsim.Normalized
	}
	return k
}

// PlanKernel is KernelFor for a full-message execution of plan.
func PlanKernel(plan *datatype.Plan) memsim.Kernel {
	return KernelFor(plan.Kernel() == datatype.KernelBlock, plan.Bytes())
}

// genericCompiled is the spec the staged typed-collective legs and the
// staged emulation of a fused transfer charge whatever kernel their plan
// runs, not PackCompiled's for a KernelBlock plan or a parallel-size leg:
// kept, so simulated times hold, until ROADMAP item 15 moves both.
var genericCompiled = memsim.Kernel{Engine: memsim.Compiled}

// fusedCopyCost prices the one-pass move of n bytes from src's layout
// into dst's, split as the fused engine splits a move of that size.
func (c *Comm) fusedCopyCost(src, dst buf.Region, srcSt, dstSt *layout.Stats, n int64) float64 {
	return c.cache.FusedCopyCost(src, dst, *srcSt, *dstSt, KernelFor(false, n).Workers)
}

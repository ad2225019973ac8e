package core

import (
	"fmt"

	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// Goal selects what the recommendation optimises for.
type Goal int

// Recommendation goals.
const (
	// GoalBalanced follows the paper's conclusion literally: derived
	// datatypes are the most user-friendly and cost nothing extra up
	// to large sizes; beyond that, pack the datatype explicitly.
	GoalBalanced Goal = iota
	// GoalFastest always picks the consistently fastest scheme.
	GoalFastest
)

// Recommendation is the advice for one transfer.
type Recommendation struct {
	Scheme Scheme
	Reason string
}

// LargeMessageBytes is the paper's threshold for "large" messages,
// where MPI's internal buffering starts to hurt direct derived-type
// sends: "over 10⁸ bytes" (§5).
const LargeMessageBytes = int64(1e8)

// PackingCostModel prices the two explicit-pack pipelines and the
// direct datatype send for an n-byte payload of the canonical
// every-other-double layout on one installation, using the memory
// model cold (no warmth): per-message software cost plus wire time.
// It is how Recommend weighs packing(c) — the compiled pack engine,
// parallel above the threshold — against the interpreted alternatives.
type PackingCostModel struct {
	Bytes int64
	// Workers is the parallel fan-out the compiled pack engine would
	// use for this size (1 = serial).
	Workers int
	// CompiledPack, InterpretedPack and TypedSend are modeled one-way
	// transfer times in seconds for packing(c), packing(v), and the
	// direct derived-datatype send.
	CompiledPack, InterpretedPack, TypedSend float64

	// FusedSend is the modeled one-way time of the fused zero-copy
	// rendezvous (sendv): one memory pass overlapped with the wire at
	// nominal bandwidth, no staging, no internal chunking. Zero when
	// the payload would ride the eager protocol, where sendv falls
	// back to the staged typed path and buys nothing.
	FusedSend float64

	// PipelinedSend is the modeled one-way time of the
	// software-pipelined typed send (SendpType): the compiled pack
	// overlapped chunk-by-chunk against injection through the slot
	// ring, still staged through MPI-internal chunks at the internally
	// degraded bandwidth. Zero when the payload would ride the eager
	// protocol or fit one chunk, where the engine degenerates to the
	// serial typed path.
	PipelinedSend float64
	// Chunks and Depth are the internal-chunk count and slot-ring
	// depth behind PipelinedSend.
	Chunks int64
	Depth  int

	// Normalized reports that the pack terms were priced with the
	// canonicalised block kernel's further-amortised bookkeeping
	// (memsim.Normalized): the type's compiled program
	// collapsed to a strided-block form at Commit.
	Normalized bool
}

// CompiledSpeedup returns TypedSend/CompiledPack: >1 means the
// compiled pack pipeline beats the direct datatype send.
func (m PackingCostModel) CompiledSpeedup() float64 {
	if m.CompiledPack <= 0 {
		return 1
	}
	return m.TypedSend / m.CompiledPack
}

// FusedSpeedup returns TypedSend/FusedSend: >1 means the fused
// rendezvous beats the direct datatype send. It is 1 when sendv would
// fall back to the staged path (eager-sized payloads).
func (m PackingCostModel) FusedSpeedup() float64 {
	if m.FusedSend <= 0 {
		return 1
	}
	return m.TypedSend / m.FusedSend
}

// PipelinedSpeedup returns TypedSend/PipelinedSend: >1 means the
// software-pipelined chunk loop beats the serial one. It is 1 when
// the engine would degenerate to the serial path.
func (m PackingCostModel) PipelinedSpeedup() float64 {
	if m.PipelinedSend <= 0 {
		return 1
	}
	return m.TypedSend / m.PipelinedSend
}

// PricePacking evaluates the packing cost model for n payload bytes of
// the canonical every-other-double layout on profile p.
func PricePacking(n int64, p *perfmodel.Profile) PackingCostModel {
	if n <= 0 {
		return PackingCostModel{Bytes: n, Workers: 1}
	}
	return priceModel(n, layout.Describe(ForBytes(n).Layout()), false, p)
}

// PricePackingForType evaluates the packing cost model for count
// instances of a committed derived type on profile p. Unlike
// PricePacking it prices the type's own layout statistics, and when the
// type's compiled program was canonicalised into a strided-block form
// at Commit (datatype.KernelBlock), the compiled-pack terms use the
// normalized kernel's further-amortised per-segment cost — the
// TEMPI-direction term that makes nested vector tilings price like the
// regular layouts they really are.
func PricePackingForType(ty *datatype.Type, count int, p *perfmodel.Profile) (PackingCostModel, error) {
	plan, err := ty.CompilePlan(count)
	if err != nil {
		return PackingCostModel{}, err
	}
	n := ty.PackSize(count)
	if n <= 0 {
		return PackingCostModel{Bytes: n, Workers: 1}, nil
	}
	return priceModel(n, ty.Stats(count), plan.Kernel() == datatype.KernelBlock, p), nil
}

// priceModel is the shared pricing ladder behind PricePacking and
// PricePackingForType.
func priceModel(n int64, st layout.Stats, normalized bool, p *perfmodel.Profile) PackingCostModel {
	m := PackingCostModel{Bytes: n, Workers: 1, Normalized: normalized}
	mem := memsim.NewState(&p.Mem)
	mem.SetDisabled(true) // steady-state estimate: cold, deterministic
	wire := p.WireTime(n)

	// The compiled pack is priced with the spec mpi.PackCompiled
	// charges a plan of this shape and size with.
	k := mpi.KernelFor(normalized, n)
	m.Workers = k.Workers
	m.CompiledPack = p.PackCallOverhead + mem.GatherCost(0, 0, st, k) + wire

	m.InterpretedPack = p.PackCallOverhead + mem.GatherCost(0, 0, st, memsim.Kernel{}) + wire

	// The direct datatype send interprets the type through MPI's
	// internal chunk buffers at the internally degraded bandwidth
	// (§2.3, §4.1), with per-chunk bookkeeping.
	typedWire := 0.0
	if bw := p.InternalBW(n); bw > 0 {
		typedWire = float64(n) / bw
	}
	m.Chunks = p.Chunks(n)
	m.Depth = p.PipelineDepth()
	m.TypedSend = mem.GatherCost(0, 0, st, memsim.Kernel{}) + float64(m.Chunks)*p.ChunkOverhead + typedWire

	// The pipelined typed send runs the same chunked staging, but the
	// compiled pack of chunk k+1 overlaps the injection of chunk k
	// through the slot ring, so the span collapses to the two-stage
	// pipeline bound. Rendezvous only: the eager path packs in one
	// shot before the envelope leaves.
	if !p.Eager(n, false) && m.Chunks > 1 {
		pipePack := mem.GatherCost(0, 0, st, memsim.Kernel{Engine: k.Engine}) + float64(m.Chunks)*p.ChunkOverhead
		m.PipelinedSend = memsim.PipelinedChunkCost(pipePack, typedWire, m.Chunks, m.Depth)
	}

	// The fused rendezvous runs one compiled pass straight into the
	// receiver's buffer, pipelined with the wire at nominal bandwidth:
	// no staging traffic, no chunk bookkeeping, no internal-pool
	// degradation. Only available past the eager limit, where the
	// handshake exposes the destination. The pass splits across the
	// same workers as the compiled pack, as mpi charges it.
	if !p.Eager(n, false) {
		m.FusedSend = max(wire, mem.FusedCopyCost(0, 0, st, layout.Dense(n), m.Workers))
	}
	return m
}

// Recommend operationalises the paper's conclusion (§5), extended with
// the compiled pack engine, for a payload of n bytes on the given
// installation:
//
//   - Contiguous data: just send it (reference).
//   - Up to large sizes, "there should be no reason not to use derived
//     datatypes, these being the most user-friendly".
//   - "The scheme that consistently performs best applies MPI_Pack to
//     a derived datatype" — and the compiled plan engine executes that
//     same single pack call with amortised per-segment bookkeeping
//     (parallel above the threshold), so when the cost model prices
//     packing(c) below the datatype send, it is the fastest choice and
//     the balanced choice for large messages.
//   - Past the eager limit the fused rendezvous (sendv) removes even
//     the pack pipeline's staging pass: one compiled sweep straight
//     into the receiver's buffer, overlapped with the wire. When the
//     model prices it below both the compiled pack and the datatype
//     send, GoalFastest picks it.
//   - When the receive path cannot take the fused scatter, the
//     software-pipelined typed send (SendpType) is the next rung: the
//     same chunked staging as the serial datatype send, with pack
//     overlapped against inject through the slot ring. GoalFastest
//     picks it whenever the model prices it below the compiled pack
//     and fused is not cheaper still.
//   - Buffered sends are "at a disadvantage" and one-sided "may behave
//     worse depending on the architecture"; they are never
//     recommended.
func Recommend(n int64, contiguous bool, goal Goal, p *perfmodel.Profile) Recommendation {
	if contiguous {
		return Recommendation{
			Scheme: Reference,
			Reason: "payload is contiguous; a plain send attains the hardware rate",
		}
	}
	return decide(func() PackingCostModel { return PricePacking(n, p) }, n, goal, p)
}

// RecommendForType is Recommend for a committed derived type: the cost
// model prices the type's own layout, with the normalized-kernel terms
// when its program canonicalised at Commit (see PricePackingForType).
func RecommendForType(ty *datatype.Type, count int, goal Goal, p *perfmodel.Profile) (Recommendation, error) {
	if ty.IsContiguous() {
		return Recommendation{
			Scheme: Reference,
			Reason: "the datatype is dense; a plain send attains the hardware rate",
		}, nil
	}
	model, err := PricePackingForType(ty, count, p)
	if err != nil {
		return Recommendation{}, err
	}
	return decide(func() PackingCostModel { return model }, ty.PackSize(count), goal, p), nil
}

// decide maps a priced model onto the recommendation ladder. The model
// is taken lazily: the balanced goal only consults it past the
// large-message threshold.
func decide(price func() PackingCostModel, n int64, goal Goal, p *perfmodel.Profile) Recommendation {
	if goal == GoalFastest {
		model := price()
		if model.FusedSend > 0 && model.FusedSend < model.CompiledPack && model.FusedSpeedup() > 1 &&
			(model.PipelinedSend <= 0 || model.FusedSend <= model.PipelinedSend) {
			return Recommendation{
				Scheme: Sendv,
				Reason: fmt.Sprintf("fused rendezvous models %.2fx over the datatype send on %s: one pass, no staging buffer, no MPI-internal chunking",
					model.FusedSpeedup(), p.Name),
			}
		}
		if model.PipelinedSend > 0 && model.PipelinedSend < model.CompiledPack && model.PipelinedSpeedup() > 1 {
			return Recommendation{
				Scheme: TypedPipelined,
				Reason: fmt.Sprintf("pipelined chunk engine models %.2fx over the serial datatype send on %s: %d chunks overlapped through a depth-%d slot ring (§2.3)",
					model.PipelinedSpeedup(), p.Name, model.Chunks, model.Depth),
			}
		}
		if model.CompiledSpeedup() > 1 {
			return Recommendation{
				Scheme: PackCompiled,
				Reason: fmt.Sprintf("compiled pack (%d worker(s)) models %.2fx over the datatype send on %s and avoids MPI-internal buffering (§5)",
					model.Workers, model.CompiledSpeedup(), p.Name),
			}
		}
		return Recommendation{
			Scheme: PackVector,
			Reason: "MPI_Pack of a derived datatype consistently matches the manual copy and avoids MPI-internal buffering (§5)",
		}
	}
	if n > LargeMessageBytes {
		model := price()
		if model.CompiledSpeedup() > 1 {
			return Recommendation{
				Scheme: PackCompiled,
				Reason: fmt.Sprintf("payload %d B exceeds the %d B large-message threshold and the compiled pack engine models %.2fx over the degrading datatype send on %s (§4.1, §5)",
					n, LargeMessageBytes, model.CompiledSpeedup(), p.Name),
			}
		}
		return Recommendation{
			Scheme: PackVector,
			Reason: fmt.Sprintf("payload %d B exceeds the %d B large-message threshold where direct derived-type sends degrade on %s (§4.1, §5)",
				n, LargeMessageBytes, p.Name),
		}
	}
	return Recommendation{
		Scheme: VectorType,
		Reason: "below the large-message range all schemes perform similarly, so the most user-friendly derived datatype wins (§5)",
	}
}

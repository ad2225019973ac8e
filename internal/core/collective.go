package core

import (
	"fmt"

	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// CollectiveCostModel prices a p-rank fan collective (the
// gather/scatter shape) of the canonical every-other-double layout on
// one installation, comparing the two ways an application can move
// non-contiguous rank layouts through a collective:
//
//   - typed-collective: the layout-aware collectives
//     (mpi.GatherType & co.) — remote legs ride the fused sendv
//     rendezvous past the eager limit and the root's self-leg is a
//     single fused copy, so every payload crosses each memory system
//     once;
//   - packed-then-collective: pack every rank's layout explicitly
//     (compiled engine), run the classic contiguous collective over
//     the packed slots, unpack at the far side — the two extra memory
//     passes the typed path removes.
//
// Leg costs come from the memsim collective terms (FusedCopyCost for a
// fused leg, StagedCollectiveLegCost for a staged one) and compose across
// ranks with the fan shape the engine would pick
// (perfmodel.CollectiveTreeLimit): a binomial tree for latency-bound
// legs, the linear fan for bandwidth-bound ones.
type CollectiveCostModel struct {
	Ranks int
	// Bytes is the per-rank payload size.
	Bytes int64
	// Workers is the parallel fan-out the fused/compiled engines would
	// use per leg (1 = serial).
	Workers int
	// Tree reports whether the engine would fan over the binomial tree
	// at this size (small legs) instead of the linear fan.
	Tree bool
	// TypedCollective and PackedCollective are modeled completion
	// times in seconds for the two strategies.
	TypedCollective, PackedCollective float64

	// PipelinedRing is the modeled completion time of the
	// packed-segment ring schedule (the engine behind the pipelined
	// large-message Bcast/Allgather): each rank packs its contribution
	// once, the ring forwards packed blocks verbatim, and every hop's
	// unpack overlaps the next piece's flight through the chunk-stream.
	// Zero at tree sizes, where the chunk pipeline has nothing to
	// overlap.
	PipelinedRing float64

	// Nodes is the node count the installation's hierarchy implies for
	// this fan (⌈Ranks/NodeSize⌉); 1 on flat machines.
	Nodes int
	// TwoLevelTyped is the modeled completion time of the
	// hierarchy-aware two-level typed fan (the topology behind the
	// two-level Bcast/Allgather schedules): ⌈Ranks/NodeSize⌉
	// concurrent intra-node fans over the cheap intra-node links feed
	// a leader fan that crosses the wire once per node instead of once
	// per rank. Zero on flat machines (NodeSize unset or no intra-node
	// latency discount).
	TwoLevelTyped float64
}

// TypedSpeedup returns PackedCollective/TypedCollective: >1 means the
// typed collective beats packing around the collective.
func (m CollectiveCostModel) TypedSpeedup() float64 {
	if m.TypedCollective <= 0 {
		return 1
	}
	return m.PackedCollective / m.TypedCollective
}

// PriceCollective evaluates the collective cost model for ranks ranks
// exchanging n-byte per-rank payloads of the canonical layout on
// profile p.
func PriceCollective(ranks int, n int64, p *perfmodel.Profile) CollectiveCostModel {
	m := CollectiveCostModel{Ranks: ranks, Bytes: n, Workers: 1}
	if n <= 0 || ranks <= 1 {
		return m
	}
	st := layout.Describe(ForBytes(n).Layout())
	mem := memsim.NewState(&p.Mem)
	mem.SetDisabled(true) // steady-state estimate: cold, deterministic
	wire := p.WireTime(n) + p.NetLatency
	over := p.SendOverhead + p.RecvOverhead
	k := mpi.KernelFor(false, n)
	m.Workers = k.Workers
	// The engine's tree rule: small legs, more than two ranks (a
	// two-rank tree is the linear fan), and every aggregated
	// store-and-forward hop still eager.
	m.Tree = p.UseCollectiveTree(ranks, n)

	selfLeg := mem.FusedCopyCost(0, 0, st, st, m.Workers)
	stagedLeg := mem.StagedCollectiveLegCost(0, 0, 0, st, st)
	if m.Tree {
		// At tree sizes the legs are eager-staged (pack, forward,
		// unpack) — the fused rendezvous needs the handshake — and
		// every hop serialises its memory pass with the wire.
		m.TypedCollective = memsim.TreeFanCost(ranks, selfLeg, stagedLeg, wire, over)
	} else {
		// Linear fused fan: the remote senders' fused passes run
		// concurrently on their own ranks, and each leg lands in place
		// at the root — no root-side unpack. The root's critical path
		// is its own self leg, one pipeline fill (the first remote
		// leg's sender pass, the same fused cost as the self leg), and
		// the serialised wire.
		m.TypedCollective = memsim.LinearFanCost(ranks, 2*selfLeg, 0, wire, over)
	}

	// Packed-then-collective: the per-rank packs run concurrently too,
	// but the root must unpack every remote slot itself, so the
	// per-leg term is the larger of the wire and the root-side unpack.
	unpack := mem.ScatterCost(0, 0, st, memsim.Kernel{Engine: memsim.Compiled})
	prologue := p.PackCallOverhead + mem.GatherCost(0, 0, st, k) + unpack // own pack + self-slot unpack
	if m.Tree {
		m.PackedCollective = prologue + memsim.TreeFanCost(ranks, 0, unpack, wire, over)
	} else {
		m.PackedCollective = prologue + memsim.LinearFanCost(ranks, 0, unpack, wire, over)
	}

	// Two-level hierarchy: with a node granularity and an intra-node
	// latency discount declared, the same fan decomposes into
	// concurrent per-node fans over the cheap links feeding a leader
	// fan whose wire legs number one per node. The intra-node stage
	// pays staged legs (eager store-and-forward at the node boundary);
	// the leader stage keeps the shape the flat engine would pick.
	m.Nodes = 1
	if ns := p.Mem.NodeSize; ns > 1 && p.IntraNodeLatency > 0 && ranks > ns {
		m.Nodes = (ranks + ns - 1) / ns
		intraWire := p.WireTime(n) + p.IntraNodeLatency
		intra := memsim.LinearFanCost(ns, selfLeg, stagedLeg, intraWire, over)
		if m.Tree {
			m.TwoLevelTyped = intra + memsim.TreeFanCost(m.Nodes, 0, stagedLeg, wire, over)
		} else {
			m.TwoLevelTyped = intra + memsim.LinearFanCost(m.Nodes, 0, 0, wire, over)
		}
	}

	if !m.Tree {
		m.PipelinedRing = ringCost(mem, st, ranks, n, p)
	}
	return m
}

// ringCost prices the clean pipelined packed-segment ring: one serial
// compiled pack of the contribution, then ranks-1 hops whose per-hop
// span is the chunked pipeline of the block's wire against its unpack
// (the forwarded stream is read back out at streaming rate, which the
// duplex hop hides under the receive).
func ringCost(mem *memsim.State, st layout.Stats, ranks int, n int64, p *perfmodel.Profile) float64 {
	k := memsim.Kernel{Engine: memsim.Compiled}
	wire := p.WireTime(n) + p.NetLatency
	over := p.SendOverhead + p.RecvOverhead
	hop := memsim.PipelinedChunkCost(wire, mem.ScatterCost(0, 0, st, k), p.Chunks(n), p.PipelineDepth())
	return mem.GatherCost(0, 0, st, k) + float64(ranks-1)*(over+hop)
}

// TwoLevelSpeedup returns TypedCollective/TwoLevelTyped: >1 means the
// hierarchy-aware two-level topology beats the flat fan. It is 1 on
// flat machines, where the two-level schedule does not apply.
func (m CollectiveCostModel) TwoLevelSpeedup() float64 {
	if m.TwoLevelTyped <= 0 || m.TypedCollective <= 0 {
		return 1
	}
	return m.TypedCollective / m.TwoLevelTyped
}

// PipelinedSpeedup returns TypedCollective/PipelinedRing: >1 means the
// packed-segment ring beats the typed fan. It is 1 when the ring does
// not apply (tree sizes).
func (m CollectiveCostModel) PipelinedSpeedup() float64 {
	if m.PipelinedRing <= 0 || m.TypedCollective <= 0 {
		return 1
	}
	return m.TypedCollective / m.PipelinedRing
}

// RecommendCollective operationalises the paper's conclusion for
// collectives over non-contiguous rank layouts: contiguous slots need
// nothing beyond the classic byte collective; non-contiguous layouts
// should ride the typed collectives (the most user-friendly choice,
// and past the eager limit the fused engine makes them the fastest),
// unless the cost model prices the explicit pack-then-collective
// pipeline below them.
func RecommendCollective(ranks int, n int64, contiguous bool, goal Goal, p *perfmodel.Profile) Recommendation {
	if contiguous {
		return Recommendation{
			Scheme: Reference,
			Reason: "slots are contiguous; the classic byte collective already rides the dense fast path",
		}
	}
	m := PriceCollective(ranks, n, p)
	if goal == GoalFastest {
		if m.PipelinedRing > 0 && m.PipelinedRing < m.TypedCollective && m.PipelinedRing <= m.PackedCollective {
			return Recommendation{
				Scheme: TypedPipelined,
				Reason: fmt.Sprintf("pipelined packed-segment ring models %.2fx over the typed fan on %s: pack once, forward packed blocks, unpack overlapped against the next piece's flight",
					m.PipelinedSpeedup(), p.Name),
			}
		}
		if m.TypedCollective <= m.PackedCollective {
			return Recommendation{
				Scheme: Sendv,
				Reason: fmt.Sprintf("typed collective models %.2fx over pack-then-collective on %s: fused legs, fused self-leg, no staging",
					m.TypedSpeedup(), p.Name),
			}
		}
		return Recommendation{
			Scheme: PackCompiled,
			Reason: fmt.Sprintf("compiled pack around the contiguous collective models %.2fx over the typed legs on %s",
				1/m.TypedSpeedup(), p.Name),
		}
	}
	if n > LargeMessageBytes && m.PackedCollective < m.TypedCollective {
		return Recommendation{
			Scheme: PackCompiled,
			Reason: fmt.Sprintf("per-rank payload %d B exceeds the %d B large-message threshold and the model favours packing around the collective on %s",
				n, LargeMessageBytes, p.Name),
		}
	}
	return Recommendation{
		Scheme: Sendv,
		Reason: "typed collectives are the most user-friendly and the fused engine keeps every leg single-pass (§5, extended)",
	}
}

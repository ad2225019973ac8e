package core

import (
	"fmt"
	"math/bits"

	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

// FaultyCollectiveModel extends CollectiveCostModel with fault-adjusted
// completion times under a lossy fabric. The topologies expose very
// different loss surfaces: a binomial tree relays the payload over
// ⌈log₂ p⌉ store-and-forward hops whose failures compound down the
// critical path and whose staged legs recover by whole-transfer
// replay, while the packed-segment ring moves the same bytes in p-1
// single-hop forwards of checksummed chunks that recover selectively —
// a damaged chunk replays alone. As the fault rate climbs the deep
// tree therefore pays compounding whole-hop retries the flat ring does
// not, and the recommendation flips from the tree/fan schedules to the
// ring well before the clean model would.
type FaultyCollectiveModel struct {
	CollectiveCostModel
	Faults memsim.FaultProfile

	// Depth is the binomial tree's critical-path hop count,
	// ⌈log₂ Ranks⌉; FanHops is the flat fan's serialized wire-leg
	// count (Ranks-1).
	Depth   int
	FanHops int
	// HopLegs is the faultable delivery legs of one hop carrying the
	// per-rank payload (envelope + internal chunks for rendezvous,
	// 1 for eager); Chunks is the selective recovery unit count of a
	// rendezvous hop (0 when eager or single-chunk).
	HopLegs int64
	Chunks  int64

	// TreeExposure and RingExposure are the per-attempt probabilities
	// that at least one leg of the whole critical path faults: the
	// tree compounds HopLegs over Depth store-and-forward hops, the
	// ring over its p-1 single-hop forwards.
	TreeExposure float64
	RingExposure float64

	// Fault-adjusted completion times mirroring the clean fields.
	// FaultyTyped and FaultyPacked recover by whole-transfer replay
	// per hop (their legs carry no per-chunk checksums);
	// FaultyPipelinedRing recovers selectively per chunk. The ring is
	// priced even at tree sizes — RingClean holds its clean cost —
	// so the fault ladder can flip to it where the clean ladder never
	// would.
	FaultyTyped         float64
	FaultyPacked        float64
	FaultyTwoLevel      float64
	RingClean           float64
	FaultyPipelinedRing float64

	// TreeDeliveryProb and RingDeliveryProb are the probabilities the
	// whole collective completes within the per-transfer retry
	// budgets.
	TreeDeliveryProb float64
	RingDeliveryProb float64
}

// RingGainUnderFaults returns FaultyTyped/FaultyPipelinedRing: >1
// means the selective-recovery ring beats the typed tree/fan under the
// priced fault profile.
func (m FaultyCollectiveModel) RingGainUnderFaults() float64 {
	if m.FaultyPipelinedRing <= 0 || m.FaultyTyped <= 0 {
		return 1
	}
	return m.FaultyTyped / m.FaultyPipelinedRing
}

// PriceCollectiveUnderFaults evaluates the collective cost model for
// ranks ranks exchanging n-byte per-rank payloads on profile p, then
// inflates each topology by the expected retries and backoff of the
// fault profile, following each topology's actual recovery unit.
func PriceCollectiveUnderFaults(ranks int, n int64, p *perfmodel.Profile, fp memsim.FaultProfile) FaultyCollectiveModel {
	m := FaultyCollectiveModel{CollectiveCostModel: PriceCollective(ranks, n, p), Faults: fp}
	if n <= 0 || ranks <= 1 {
		return m
	}
	m.Depth = bits.Len(uint(ranks - 1)) // ⌈log₂ ranks⌉
	m.FanHops = ranks - 1
	wire := p.WireTime(n) + p.NetLatency
	over := p.SendOverhead + p.RecvOverhead
	hop := wire + over
	m.HopLegs = 1
	if !p.Eager(n, false) {
		m.HopLegs = 1 + p.Chunks(n)
		if ch := p.Chunks(n); ch > 1 {
			m.Chunks = ch
		}
	}

	// The ring is priced even where the clean model declines it (tree
	// sizes), by the clean model's formula.
	m.RingClean = m.PipelinedRing
	if m.RingClean <= 0 {
		st := layout.Describe(ForBytes(n).Layout())
		mem := memsim.NewState(&p.Mem)
		mem.SetDisabled(true)
		m.RingClean = ringCost(mem, st, ranks, n, p)
	}

	// Critical-path hop counts per topology: the tree relays over
	// Depth store-and-forward hops; the flat fan serialises its wire
	// legs at the root.
	typedHops := m.FanHops
	if m.Tree {
		typedHops = m.Depth
	}
	m.TreeExposure = fp.DepthLossExposure(typedHops, m.HopLegs)
	m.RingExposure = fp.DepthLossExposure(ranks-1, m.HopLegs)

	// Whole-replay recovery per hop for the typed and packed
	// schedules: a faulted hop replays its full transfer.
	hopExtra := fp.InflateTransfer(hop, hop, m.HopLegs) - hop
	m.FaultyTyped = m.TypedCollective + float64(typedHops)*hopExtra
	m.FaultyPacked = m.PackedCollective + float64(typedHops)*hopExtra
	if m.TwoLevelTyped > 0 {
		// Leaders relay over a ⌈log₂ nodes⌉ tree (or fan) after one
		// intra-node hop; both stages replay whole transfers.
		twoHops := 1 + bits.Len(uint(m.Nodes-1))
		m.FaultyTwoLevel = m.TwoLevelTyped + float64(twoHops)*hopExtra
	}

	// Selective recovery per hop for the ring: the forwarded stream is
	// already chunked and checksummed, so a damaged chunk replays only
	// its own share of the hop.
	if m.Chunks > 0 {
		ringHopExtra := fp.SelectiveInflateTransfer(hop, hop/float64(m.Chunks), m.Chunks) - hop
		m.FaultyPipelinedRing = m.RingClean + float64(ranks-1)*ringHopExtra
		m.RingDeliveryProb = pow(fp.SelectiveDeliveryProb(m.Chunks), ranks-1)
	} else {
		m.FaultyPipelinedRing = m.RingClean + float64(ranks-1)*hopExtra
		m.RingDeliveryProb = pow(fp.TransferDeliveryProb(m.HopLegs), ranks-1)
	}
	m.TreeDeliveryProb = pow(fp.TransferDeliveryProb(m.HopLegs), typedHops)
	return m
}

// pow is x^k for small non-negative integer k.
func pow(x float64, k int) float64 {
	r := 1.0
	for i := 0; i < k; i++ {
		r *= x
	}
	return r
}

// RecommendCollectiveUnderFaults is the fault-adjusted variant of
// RecommendCollective: the same scheme ladder, priced with each
// topology's recovery behavior folded in. On a clean fabric it reduces
// exactly to RecommendCollective. Under loss the ⌈log₂ p⌉
// store-and-forward hops of the tree compound whole-transfer retries
// while the ring's chunked hops retry selectively, so the
// recommendation flips toward the pipelined ring as the fault rate
// climbs — including at sizes where the clean ladder prefers the tree.
func RecommendCollectiveUnderFaults(ranks int, n int64, contiguous bool, goal Goal, p *perfmodel.Profile, fp memsim.FaultProfile) Recommendation {
	if !fp.Enabled() {
		return RecommendCollective(ranks, n, contiguous, goal, p)
	}
	if contiguous {
		return Recommendation{
			Scheme: Reference,
			Reason: "slots are contiguous; the classic byte collective already rides the dense fast path (retries inflate every schedule's hops equally)",
		}
	}
	m := PriceCollectiveUnderFaults(ranks, n, p, fp)
	annotate := func(r Recommendation) Recommendation {
		r.Reason = fmt.Sprintf("%s; fault-adjusted for leg loss %.3g (%d-hop tree exposure %.3f vs ring exposure %.3f, tree delivery %.4f vs ring %.4f)",
			r.Reason, fp.LegLossRate, m.Depth, m.TreeExposure, m.RingExposure, m.TreeDeliveryProb, m.RingDeliveryProb)
		return r
	}
	if goal != GoalFastest {
		// The balanced ladder stays threshold-driven; annotate with the
		// fault exposure so the caller sees the reliability picture.
		return annotate(RecommendCollective(ranks, n, contiguous, goal, p))
	}
	if m.FaultyPipelinedRing > 0 && m.FaultyPipelinedRing < m.FaultyTyped && m.FaultyPipelinedRing <= m.FaultyPacked {
		return annotate(Recommendation{
			Scheme: TypedPipelined,
			Reason: fmt.Sprintf("pipelined packed-segment ring models %.2fx over the typed schedule on %s under loss: chunked hops retransmit selectively while every tree hop replays whole transfers",
				m.RingGainUnderFaults(), p.Name),
		})
	}
	if m.FaultyTyped <= m.FaultyPacked {
		return annotate(Recommendation{
			Scheme: Sendv,
			Reason: fmt.Sprintf("typed collective models %.2fx over pack-then-collective on %s under loss: fused legs, same hop count, cheaper replay unit",
				m.FaultyPacked/m.FaultyTyped, p.Name),
		})
	}
	return annotate(Recommendation{
		Scheme: PackCompiled,
		Reason: fmt.Sprintf("compiled pack around the contiguous collective models %.2fx over the typed legs on %s under loss",
			m.FaultyTyped/m.FaultyPacked, p.Name),
	})
}

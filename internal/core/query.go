package core

import (
	"errors"
	"fmt"

	"repro/internal/datatype"
	"repro/internal/memsim"
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

// Query is one question to the cost model: a non-contiguous payload on
// one installation. Zero fields take the defaults: the canonical
// every-other-double layout, count 1, point-to-point, a clean fabric,
// and no calibration.
type Query struct {
	// Bytes is the payload of the canonical layout (ForBytes), per rank
	// for a collective. It is ignored when Type is set.
	Bytes int64
	// Type prices Count instances of a committed derived type by its own
	// layout statistics, with the normalized-kernel terms when its
	// program canonicalised at Commit. A dense Type is sent as is.
	Type  *datatype.Type
	Count int

	Profile *perfmodel.Profile

	// Ranks above 1 price a Ranks-rank fan collective (the
	// gather/scatter shape) instead of one point-to-point transfer.
	Ranks int

	// Faults prices checksum-verified retransmission on a lossy fabric.
	Faults memsim.FaultProfile

	// Observed replaces the typed-send and packed-send terms by the
	// installation's fitted virtual-clock costs wherever it has enough
	// samples, and the recommendation becomes a strict argmin over them.
	Observed *memsim.ObservedHierarchy
}

func (q Query) validate() error {
	switch {
	case q.Profile == nil:
		return errors.New("core: query without a profile")
	case q.Ranks > 1 && q.Type != nil:
		return errors.New("core: a collective query prices the canonical layout, not a Type")
	case q.Ranks > 1 && q.Observed != nil:
		return errors.New("core: observed fits price point-to-point transfers only")
	case q.Observed != nil && q.Faults.Enabled():
		return errors.New("core: observed fits are not priced under faults")
	}
	return nil
}

// Times holds one modelled time in seconds per scheme, indexed by
// Scheme. Zero means the model does not price that scheme.
type Times [TypedPipelined + 1]float64

// Ratio returns t[a]/t[b]: above 1 means b is faster than a. It is 1
// when either scheme is not priced.
func (t Times) Ratio(a, b Scheme) float64 {
	if t[a] <= 0 || t[b] <= 0 {
		return 1
	}
	return t[a] / t[b]
}

// argmin returns the cheapest of the candidates; ties go to the
// earlier one. The fused and pipelined engines are priced only where
// they run, so a zero time there takes them out of the race.
func (t Times) argmin(candidates []Scheme) Scheme {
	best := candidates[0]
	for _, s := range candidates[1:] {
		if t[s] <= 0 && (s == Sendv || s == TypedPipelined) {
			continue
		}
		if t[s] < t[best] {
			best = s
		}
	}
	return best
}

// The candidates of the fastest-goal argmin, in tie-break order.
// Point-to-point: the direct datatype send, the compiled pack, the
// fused rendezvous and the pipelined chunk loop. Collectives: the typed
// collective, the packed-segment ring and packing around the contiguous
// collective.
var (
	p2pCandidates        = []Scheme{VectorType, PackCompiled, Sendv, TypedPipelined}
	collectiveCandidates = []Scheme{Sendv, TypedPipelined, PackCompiled}
)

// Cost is the cost model's answer to a Query: modelled one-way times
// per scheme (completion times for a collective), computed with the
// memory model cold, plus the shape they were priced with.
//
// Point-to-point, Clean prices VectorType (the direct datatype send,
// staged through MPI-internal chunks at the internally degraded
// bandwidth), PackVector and PackCompiled (one interpreted or compiled
// pack call plus the wire), Sendv (the fused rendezvous: one pass
// overlapped with the wire, zero at eager sizes where sendv falls back
// to the staged path) and TypedPipelined (the chunk loop with pack
// overlapped against inject, zero at eager or single-chunk sizes).
//
// For a collective, Sendv is the typed collective (fused legs and a
// fused self-leg), PackCompiled is packing every rank's layout around
// the classic contiguous collective, and TypedPipelined is the
// packed-segment ring, zero at tree sizes.
type Cost struct {
	// Bytes is the payload (per rank for a collective); Ranks is 1 for
	// point-to-point.
	Bytes int64
	Ranks int

	Clean Times
	// Faulty holds the expected times under Query.Faults, following
	// each engine's recovery unit. The chunked rendezvous engines and
	// the ring recover selectively: every internal chunk carries its own
	// checksum and a retry replays only the damaged chunks. The compiled
	// pack, eager and single-chunk transfers and every tree or fan hop
	// replay the whole transfer. On a clean fabric Faulty equals Clean,
	// except that packing(v) is not priced.
	Faulty Times
	// WholeReplay prices the point-to-point transfers as if every
	// retry replayed the whole transfer: the baseline selective
	// recovery is measured against (E18/E21).
	WholeReplay Times

	// Workers is the modelled fan-out of the compiled and fused engines
	// (1 = serial; the same on every host). Normalized reports that the pack terms were priced
	// with the canonicalised block kernel (memsim.Normalized).
	Workers    int
	Normalized bool
	// Chunks is the internal-chunk count of a point-to-point transfer.
	// Depth is its pipeline's modelled depth, or for a
	// collective the binomial tree's critical-path hop count ⌈log₂ Ranks⌉.
	Chunks int64
	Depth  int
	// Legs is the faultable delivery legs per attempt (per hop for a
	// collective): one for an eager message, the envelope plus the
	// internal chunks for a rendezvous. Repair is the selective recovery
	// unit count; 0 when recovery replays the whole transfer.
	Legs   int64
	Repair int64
	// DeliveryProb is the probability the transfer, or the collective's
	// typed tree or fan, completes within the retry budget;
	// RingDeliveryProb is the packed-segment ring's.
	DeliveryProb     float64
	RingDeliveryProb float64

	// Collective only. Tree reports the binomial tree fan (small legs)
	// instead of the linear one. Nodes is ⌈Ranks/NodeSize⌉, 1 on flat
	// machines. TwoLevel is the hierarchy-aware two-level typed fan,
	// zero on flat machines, and FaultyTwoLevel its expected time under
	// faults. RingClean is the clean ring priced even at tree sizes, so
	// the fault ladder can pick it where the clean one never does.
	// TreeExposure and RingExposure are the per-attempt probabilities
	// that a leg of the typed schedule's or the ring's critical path
	// faults.
	Tree                       bool
	Nodes                      int
	TwoLevel, FaultyTwoLevel   float64
	RingClean                  float64
	TreeExposure, RingExposure float64
}

// Price evaluates the cost model for one query.
func Price(q Query) (Cost, error) {
	if err := q.validate(); err != nil {
		return Cost{}, err
	}
	if q.Ranks > 1 {
		return priceCollective(q.Ranks, q.Bytes, q.Profile, q.Faults)
	}
	return pricePointToPoint(q)
}

// Recommend operationalises the paper's conclusion (§5), extended with
// the compiled pack, fused and pipelined engines, for one query.
//
//   - A dense Type: just send it (reference).
//   - GoalBalanced: up to large sizes "there should be no reason not to
//     use derived datatypes, these being the most user-friendly"; past
//     LargeMessageBytes the compiled pack when the model prices it below
//     the datatype send (for a collective: below the typed collective),
//     otherwise packing(v) (the typed collective). Faults inflate every
//     scheme by the same legs, so the thresholds stand.
//   - GoalFastest: the cheapest candidate, priced under Query.Faults
//     when they are enabled. A point-to-point direct datatype send maps
//     to packing(v): "the scheme that consistently performs best
//     applies MPI_Pack to a derived datatype". Buffered and one-sided
//     sends are "at a disadvantage" and never recommended.
//   - With observed fits on either path, both goals take the strict
//     argmin over the tuned times, so the recommended scheme's modelled
//     cost never exceeds an alternative's (the Hunold/Träff
//     recommender guideline, by construction).
//
// Under enabled faults the reason carries the fault annotation.
func Recommend(q Query, goal Goal) (Recommendation, error) {
	c, err := Price(q)
	if err != nil {
		return Recommendation{}, err
	}
	p := q.Profile
	if q.Type != nil && q.Type.IsContiguous() {
		return Recommendation{Scheme: Reference, Reason: "the datatype is dense; a plain send attains the hardware rate"}, nil
	}
	if tunes(q.Observed) {
		s := c.Clean.argmin(p2pCandidates)
		return Recommendation{
			Scheme: s,
			Reason: fmt.Sprintf("self-tuned on %s from observed virtual-clock fits: %s models %.3g s at %d B, no alternative cheaper",
				p.Name, s, c.Clean[s], c.Bytes),
		}, nil
	}
	faulty := q.Faults.Enabled()
	var r Recommendation
	switch {
	case goal != GoalFastest:
		r = c.balanced(p)
	case faulty:
		r = c.fastest(c.Faulty, true, p)
	default:
		r = c.fastest(c.Clean, false, p)
	}
	if faulty {
		r.Reason = c.annotate(r.Reason, q.Faults)
	}
	return r, nil
}

// tunes reports whether o has fitted at least one of the paths Price
// replaces.
func tunes(o *memsim.ObservedHierarchy) bool {
	if o == nil {
		return false
	}
	_, typed := o.Fit(memsim.PathTypedSend)
	_, packed := o.Fit(memsim.PathPackedSend)
	return typed || packed
}

// balanced is the threshold rule of GoalBalanced.
func (c Cost) balanced(p *perfmodel.Profile) Recommendation {
	if c.Ranks > 1 {
		if c.Bytes > LargeMessageBytes && c.Clean[PackCompiled] < c.Clean[Sendv] {
			return Recommendation{
				Scheme: PackCompiled,
				Reason: fmt.Sprintf("per-rank payload %d B exceeds the %d B large-message threshold and the model favours packing around the collective on %s",
					c.Bytes, LargeMessageBytes, p.Name),
			}
		}
		return Recommendation{
			Scheme: Sendv,
			Reason: "typed collectives are the most user-friendly and the fused engine keeps every leg single-pass (§5, extended)",
		}
	}
	switch {
	case c.Bytes <= LargeMessageBytes:
		return Recommendation{
			Scheme: VectorType,
			Reason: "below the large-message range all schemes perform similarly, so the most user-friendly derived datatype wins (§5)",
		}
	case c.Clean.Ratio(VectorType, PackCompiled) > 1:
		return Recommendation{
			Scheme: PackCompiled,
			Reason: fmt.Sprintf("payload %d B exceeds the %d B large-message threshold and the compiled pack engine models %.2fx over the degrading datatype send on %s (§4.1, §5)",
				c.Bytes, LargeMessageBytes, c.Clean.Ratio(VectorType, PackCompiled), p.Name),
		}
	}
	return Recommendation{
		Scheme: PackVector,
		Reason: fmt.Sprintf("payload %d B exceeds the %d B large-message threshold where direct derived-type sends degrade on %s (§4.1, §5)",
			c.Bytes, LargeMessageBytes, p.Name),
	}
}

// fastest is the GoalFastest argmin over t, the clean or the faulty
// times, with the reason for the pick.
func (c Cost) fastest(t Times, faulty bool, p *perfmodel.Profile) Recommendation {
	why := func(clean, lossy string) string {
		if faulty {
			return lossy
		}
		return clean
	}
	if c.Ranks > 1 {
		s := t.argmin(collectiveCandidates)
		switch s {
		case TypedPipelined:
			return Recommendation{Scheme: s, Reason: fmt.Sprintf("pipelined packed-segment ring models %.2fx over the typed %s on %s%s",
				t.Ratio(Sendv, s), why("fan", "schedule"), p.Name,
				why(": pack once, forward packed blocks, unpack overlapped against the next piece's flight",
					" under loss: chunked hops retransmit selectively while every tree hop replays whole transfers"))}
		case Sendv:
			return Recommendation{Scheme: s, Reason: fmt.Sprintf("typed collective models %.2fx over pack-then-collective on %s%s: fused legs, %s",
				t.Ratio(PackCompiled, s), p.Name, why("", " under loss"), why("fused self-leg, no staging", "same hop count, cheaper replay unit"))}
		}
		return Recommendation{Scheme: s, Reason: fmt.Sprintf("compiled pack around the contiguous collective models %.2fx over the typed legs on %s%s",
			t.Ratio(Sendv, s), p.Name, why("", " under loss"))}
	}
	s := t.argmin(p2pCandidates)
	x := t.Ratio(VectorType, s)
	switch s {
	case Sendv:
		return Recommendation{Scheme: s, Reason: fmt.Sprintf("fused rendezvous models %.2fx over the datatype send on %s%s", x, p.Name,
			why(": one pass, no staging buffer, no MPI-internal chunking", " under loss: one pass per attempt is the cheapest retry unit"))}
	case TypedPipelined:
		return Recommendation{Scheme: s, Reason: fmt.Sprintf("pipelined chunk engine models %.2fx over the serial datatype send on %s: %s", x, p.Name,
			why(fmt.Sprintf("%d chunks, each packed while the previous one injects, at modelled depth %d (§2.3)", c.Chunks, c.Depth),
				"selective retransmission replays only damaged chunks, keeping the overlap"))}
	case PackCompiled:
		return Recommendation{Scheme: s, Reason: fmt.Sprintf("compiled pack (%d worker(s)) models %.2fx over the datatype send on %s%s", c.Workers, x, p.Name,
			why(" and avoids MPI-internal buffering (§5)", " under loss"))}
	}
	return Recommendation{Scheme: PackVector, Reason: why(
		"MPI_Pack of a derived datatype consistently matches the manual copy and avoids MPI-internal buffering (§5)",
		"MPI_Pack of a derived datatype matches the manual copy; loss inflates every scheme by the same leg count here")}
}

// annotate appends the fault picture to a reason given under faults.
func (c Cost) annotate(reason string, fp memsim.FaultProfile) string {
	if c.Ranks > 1 {
		return fmt.Sprintf("%s; fault-adjusted for leg loss %.3g (%d-hop tree exposure %.3f vs ring exposure %.3f, tree delivery %.4f vs ring %.4f)",
			reason, fp.LegLossRate, c.Depth, c.TreeExposure, c.RingExposure, c.DeliveryProb, c.RingDeliveryProb)
	}
	unit := "whole-transfer replay"
	if c.Repair > 0 {
		unit = fmt.Sprintf("selective replay over %d chunks", c.Repair)
	}
	slowdown := 1.0
	if t := c.Clean[VectorType]; t > 0 {
		slowdown = c.Faulty[VectorType] / t
	}
	return fmt.Sprintf("%s; fault-adjusted for leg loss %.3g over %d legs (%s, budget %d, delivery prob %.4f, expected slowdown %.2fx)",
		reason, fp.LegLossRate, c.Legs, unit, fp.MaxRetries, c.DeliveryProb, slowdown)
}

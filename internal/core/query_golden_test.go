package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"testing"

	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
)

// The golden grid: every registered profile plus a hierarchical one,
// sizes 0 and 10³…10⁹ at three per decade, both goals, point-to-point
// and four rank counts, six fault profiles, four observed hierarchies,
// and four committed types at two counts.

type goldenProfile struct {
	name string
	p    *perfmodel.Profile
}

func goldenProfiles(t testing.TB) []goldenProfile {
	var out []goldenProfile
	for _, name := range perfmodel.Names() {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenProfile{name, p})
	}
	hier := perfmodel.Generic()
	hier.Mem.NodeSize = 8
	hier.IntraNodeLatency = hier.NetLatency / 10
	return append(out, goldenProfile{"generic-hier8", hier})
}

func goldenSizes() []int64 {
	sizes := []int64{0}
	for i := 0; i <= 18; i++ {
		sizes = append(sizes, int64(math.Round(math.Pow(10, 3+float64(i)/3))))
	}
	return sizes
}

var goldenRanks = []int{2, 8, 16, 64}

var goldenGoals = []struct {
	name string
	goal Goal
}{{"balanced", GoalBalanced}, {"fastest", GoalFastest}}

type goldenFault struct {
	name string
	fp   memsim.FaultProfile
}

// lossy is the fault profile of the chaos tests: a leg-loss rate under
// the default retry budget and backoff.
func lossy(rate float64) memsim.FaultProfile {
	return memsim.FaultProfile{LegLossRate: rate, MaxRetries: 8, BaseBackoff: 20e-6, MaxBackoff: 2e-3}
}

func goldenFaults() []goldenFault {
	return []goldenFault{
		{"clean", memsim.FaultProfile{}},
		{"loss0-budget8", memsim.FaultProfile{MaxRetries: 8}},
		{"loss0.005", lossy(0.005)},
		{"loss0.02", lossy(0.02)},
		{"loss0.05", lossy(0.05)},
		{"loss0.05-budget1", memsim.FaultProfile{LegLossRate: 0.05, MaxRetries: 1}},
	}
}

// feed trains a path with a synthetic latency+bandwidth line sampled
// at several sizes.
func feed(o *memsim.ObservedHierarchy, path string, alpha, invBW float64) {
	for _, n := range []int64{1 << 10, 64 << 10, 1 << 20, 16 << 20} {
		o.Observe(path, n, alpha+invBW*float64(n))
	}
}

type goldenObserved struct {
	name string
	o    *memsim.ObservedHierarchy
}

// goldenObservedSet builds the observed hierarchies: one below
// MinObservations, one where the typed send is observed near-free, and
// one where it is observed 100x slower than the packed send. The nil
// hierarchy is the calibrated model, the clean rows.
func goldenObservedSet() []goldenObserved {
	sparse := memsim.NewObservedHierarchy()
	sparse.Observe(memsim.PathTypedSend, 1<<20, 1e-4)
	fast := memsim.NewObservedHierarchy()
	feed(fast, memsim.PathTypedSend, 1e-9, 1e-12)
	slow := memsim.NewObservedHierarchy()
	feed(slow, memsim.PathTypedSend, 1e-3, 1e-7)
	feed(slow, memsim.PathPackedSend, 1e-6, 1e-9)
	return []goldenObserved{{"sparse", sparse}, {"fitted-fast", fast}, {"fitted-slow", slow}}
}

type goldenType struct {
	name string
	ty   *datatype.Type
}

func goldenTypes(t testing.TB) []goldenType {
	commit := committer(t)
	dense := commit(datatype.Contiguous(1024, datatype.Float64))
	vec := commit(datatype.Vector(1<<17, 1, 2, datatype.Float64))
	in, err := datatype.Vector(64, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	nested := commit(datatype.Hvector(256, 1, in.TrueExtent()+16, in))
	irregular := commit(datatype.Indexed([]int{1, 1, 1, 1, 1, 1}, []int{0, 3, 7, 12, 14, 21}, datatype.Float64))
	return []goldenType{{"dense", dense}, {"vector", vec}, {"hvector-of-vector", nested}, {"indexed", irregular}}
}

// goldenQuery is one query of the grid with its line key and the
// fault profile it varies, if any.
type goldenQuery struct {
	key   string
	q     Query
	fault string
}

// goldenQueries enumerates one profile's share of the grid:
// point-to-point under every fault profile and every observed
// hierarchy, collectives at every rank count under every fault
// profile, and every type at counts 1 and 4.
func goldenQueries(t testing.TB, gp goldenProfile) []goldenQuery {
	var out []goldenQuery
	p := gp.p
	for _, n := range goldenSizes() {
		for _, gf := range goldenFaults() {
			out = append(out, goldenQuery{fmt.Sprintf("%s n=%d faults=%s", gp.name, n, gf.name),
				Query{Bytes: n, Profile: p, Faults: gf.fp}, gf.name})
		}
		for _, ob := range goldenObservedSet() {
			out = append(out, goldenQuery{key: fmt.Sprintf("%s n=%d observed=%s", gp.name, n, ob.name),
				q: Query{Bytes: n, Profile: p, Observed: ob.o}})
		}
		for _, ranks := range goldenRanks {
			for _, gf := range goldenFaults() {
				out = append(out, goldenQuery{fmt.Sprintf("%s n=%d ranks=%d faults=%s", gp.name, n, ranks, gf.name),
					Query{Bytes: n, Profile: p, Ranks: ranks, Faults: gf.fp}, gf.name})
			}
		}
	}
	for _, gt := range goldenTypes(t) {
		for _, count := range []int{1, 4} {
			out = append(out, goldenQuery{key: fmt.Sprintf("%s type=%s count=%d", gp.name, gt.name, count),
				q: Query{Type: gt.ty, Count: count, Profile: p}})
		}
	}
	return out
}

// goldenBlock collects one query's lines: its non-zero quantities
// sorted by name, then one line per goal with the recommended scheme
// and reason.
type goldenBlock struct {
	key   string
	quant []string
	recs  []string
}

// quantity records one named value; zero (not priced) is left out.
func (b *goldenBlock) quantity(name string, v float64) {
	if v == 0 {
		return
	}
	b.quant = append(b.quant, fmt.Sprintf("%s %s %s", b.key, name, strconv.FormatFloat(v, 'g', -1, 64)))
}

func (b *goldenBlock) recommend(goal string, r Recommendation) {
	b.recs = append(b.recs, fmt.Sprintf("%s %s %s: %s", b.key, goal, r.Scheme, r.Reason))
}

func (b *goldenBlock) lines() []string {
	sort.Strings(b.quant)
	return append(b.quant, b.recs...)
}

// quantities records a Cost under the field names of the four model
// structs the golden file was recorded with: the packing model for
// types and observed fits, the faulty packing model for point-to-point
// fault profiles, the faulty collective model for collectives.
func (b *goldenBlock) quantities(c Cost, gq goldenQuery) {
	f := b.quantity
	flag := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	f("Bytes", float64(c.Bytes))
	f("Workers", float64(c.Workers))
	if c.Ranks > 1 {
		f("Ranks", float64(c.Ranks))
		f("Tree", flag(c.Tree))
		f("TypedCollective", c.Clean[Sendv])
		f("PackedCollective", c.Clean[PackCompiled])
		f("PipelinedRing", c.Clean[TypedPipelined])
		f("Nodes", float64(c.Nodes))
		f("TwoLevelTyped", c.TwoLevel)
		f("Depth", float64(c.Depth))
		if c.Bytes > 0 {
			f("FanHops", float64(c.Ranks-1))
		}
		f("HopLegs", float64(c.Legs))
		f("Chunks", float64(c.Repair))
		f("TreeExposure", c.TreeExposure)
		f("RingExposure", c.RingExposure)
		f("FaultyTyped", c.Faulty[Sendv])
		f("FaultyPacked", c.Faulty[PackCompiled])
		f("FaultyTwoLevel", c.FaultyTwoLevel)
		f("RingClean", c.RingClean)
		f("FaultyPipelinedRing", c.Faulty[TypedPipelined])
		f("TreeDeliveryProb", c.DeliveryProb)
		f("RingDeliveryProb", c.RingDeliveryProb)
		return
	}
	f("CompiledPack", c.Clean[PackCompiled])
	f("InterpretedPack", c.Clean[PackVector])
	f("TypedSend", c.Clean[VectorType])
	f("FusedSend", c.Clean[Sendv])
	f("PipelinedSend", c.Clean[TypedPipelined])
	f("Depth", float64(c.Depth))
	f("Normalized", flag(c.Normalized))
	if gq.fault == "" {
		f("Chunks", float64(c.Chunks))
		return
	}
	f("PackingCostModel.Chunks", float64(c.Chunks))
	f("Legs", float64(c.Legs))
	f("Chunks", float64(c.Repair))
	f("FaultyCompiledPack", c.Faulty[PackCompiled])
	f("FaultyTypedSend", c.Faulty[VectorType])
	f("FaultyFusedSend", c.Faulty[Sendv])
	f("FaultyPipelinedSend", c.Faulty[TypedPipelined])
	f("WholeReplayTypedSend", c.WholeReplay[VectorType])
	f("WholeReplayPipelinedSend", c.WholeReplay[TypedPipelined])
	f("DeliveryProb", c.DeliveryProb)
}

// queryGoldenLines prices and recommends every query of one profile's
// share of the grid.
func queryGoldenLines(t testing.TB, gp goldenProfile) []string {
	var out []string
	for _, gq := range goldenQueries(t, gp) {
		c, err := Price(gq.q)
		if err != nil {
			t.Fatal(err)
		}
		b := &goldenBlock{key: gq.key}
		b.quantities(c, gq)
		for _, g := range goldenGoals {
			r, err := Recommend(gq.q, g.goal)
			if err != nil {
				t.Fatal(err)
			}
			b.recommend(g.name, r)
		}
		out = append(out, b.lines()...)
	}
	return out
}

// TestQueryGolden pins every price and recommendation of the cost model
// over the golden grid, one digest block per profile ("query.<name>"),
// whose rows are that profile's lines: its quantities sorted by name,
// then one line per goal. The block "query" lists those blocks, so a
// profile that stops being registered fails too. The answers do not depend on the host's core
// count. The rows were recorded through the twelve entry points Query
// replaced, under their field names; the zero-byte collective rows
// under a fault profile since report delivery probability 1 and a
// finite ratio.
func TestQueryGolden(t *testing.T) {
	var blocks []string
	for _, gp := range goldenProfiles(t) {
		blocks = append(blocks, "query."+gp.name)
		oracle.Golden(t, blocks[len(blocks)-1], queryGoldenLines(t, gp))
	}
	oracle.Golden(t, "query", blocks)
}

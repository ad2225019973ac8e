package core

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/datatype"
	"repro/internal/layout"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

func TestSchemeNames(t *testing.T) {
	want := []string{"reference", "copying", "buffered", "vector type", "subarray", "onesided", "packing(e)", "packing(v)", "packing(c)", "sendv", "pipelined"}
	for i, s := range Schemes() {
		if s.String() != want[i] {
			t.Errorf("scheme %d = %q, want %q", i, s, want[i])
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme renders empty")
	}
}

func TestWorkloadGeometry(t *testing.T) {
	w := ForBytes(1 << 20)
	if w.BlockLen != 1 || w.Stride != 2 {
		t.Fatalf("canonical workload = %+v", w)
	}
	if w.Bytes() != 1<<20 {
		t.Fatalf("bytes = %d", w.Bytes())
	}
	if w.SrcBytes() != 2<<20 {
		t.Fatalf("src bytes = %d", w.SrcBytes())
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadValidate(t *testing.T) {
	bad := []Workload{
		{Count: -1, BlockLen: 1, Stride: 2},
		{Count: 1, BlockLen: 0, Stride: 2},
		{Count: 1, BlockLen: 4, Stride: 2},
		{Count: 1, BlockLen: 1, Stride: 2, Jitter: 1.5},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d validated: %+v", i, w)
		}
	}
}

func TestWorkloadTypesAgreeWithLayout(t *testing.T) {
	w := Workload{Count: 50, BlockLen: 3, Stride: 7}
	vt, err := w.VectorType()
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.SubarrayType()
	if err != nil {
		t.Fatal(err)
	}
	if vt.Size() != w.Bytes() || st.Size() != w.Bytes() {
		t.Fatalf("type sizes %d/%d, want %d", vt.Size(), st.Size(), w.Bytes())
	}
	// Both types must select exactly the workload's layout bytes.
	want := layout.Segments(w.Layout())
	for name, ty := range map[string]*datatype.Type{"vector": vt, "subarray": st} {
		plan, err := ty.CompilePlan(1)
		if err != nil {
			t.Fatal(err)
		}
		var got []layout.Segment
		for it := plan.Segments(); ; {
			off, n := it.Run()
			if n == 0 {
				break
			}
			got = append(got, layout.Segment{Off: off, Len: n})
			it.Advance(n)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d segments, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s segment %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestJitteredWorkloadType(t *testing.T) {
	w := Workload{Count: 100, BlockLen: 1, Stride: 8, Jitter: 0.8}
	ty, err := w.VectorType()
	if err != nil {
		t.Fatal(err)
	}
	if ty.Size() != w.Bytes() {
		t.Fatalf("jittered type size %d, want %d", ty.Size(), w.Bytes())
	}
	if _, err := w.SubarrayType(); err == nil {
		t.Fatal("subarray accepted a jittered workload")
	}
	if w.SrcBytes() < w.Layout().Extent() {
		t.Fatal("source allocation smaller than jittered extent")
	}
}

// Property: payload size is invariant under jitter.
func TestQuickJitterPreservesPayload(t *testing.T) {
	f := func(cnt uint8, j float64) bool {
		if j < 0 {
			j = -j
		}
		for j > 1 {
			j /= 2
		}
		w := Workload{Count: int(cnt)%100 + 1, BlockLen: 1, Stride: 8, Jitter: j}
		return w.Layout().Size() == w.Bytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRunnerAllSchemes(t *testing.T) {
	for _, s := range Schemes() {
		r, err := NewRunner(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r == nil {
			t.Fatalf("%v: nil runner", s)
		}
	}
	if _, err := NewRunner(Scheme(42)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

// price and recommend are Price and Recommend for queries the test
// knows to be valid.
func price(t testing.TB, q Query) Cost {
	t.Helper()
	c, err := Price(q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func recommend(t testing.TB, q Query, goal Goal) Recommendation {
	t.Helper()
	r, err := Recommend(q, goal)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// committer returns a function that commits a freshly constructed
// type, failing t on any error.
func committer(t testing.TB) func(*datatype.Type, error) *datatype.Type {
	return func(ty *datatype.Type, err error) *datatype.Type {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		return ty
	}
}

// TestQueryRejectsUnpricedCombinations: a query combining fields no
// model prices together is an error, not a silent default.
func TestQueryRejectsUnpricedCombinations(t *testing.T) {
	p := perfmodel.Generic()
	vec := committer(t)(datatype.Vector(64, 1, 2, datatype.Float64))
	o := memsim.NewObservedHierarchy()
	for name, q := range map[string]Query{
		"no profile":          {Bytes: 1 << 20},
		"collective type":     {Type: vec, Profile: p, Ranks: 8},
		"collective observed": {Bytes: 1 << 20, Profile: p, Ranks: 8, Observed: o},
		"observed faults":     {Bytes: 1 << 20, Profile: p, Observed: o, Faults: lossy(0.02)},
	} {
		if _, err := Price(q); err == nil {
			t.Errorf("%s: Price accepted %+v", name, q)
		}
		if _, err := Recommend(q, GoalFastest); err == nil {
			t.Errorf("%s: Recommend accepted %+v", name, q)
		}
	}
	// A disabled fault profile combines with observed fits.
	if _, err := Price(Query{Bytes: 1 << 20, Profile: p, Observed: o, Faults: memsim.FaultProfile{MaxRetries: 8}}); err != nil {
		t.Errorf("observed fits on a clean fabric rejected: %v", err)
	}
}

func TestRecommendConclusion(t *testing.T) {
	prof := perfmodel.Generic()
	q := func(n int64) Query { return Query{Bytes: n, Profile: prof} }
	small := recommend(t, q(1<<20), GoalBalanced)
	if small.Scheme != VectorType {
		t.Errorf("balanced small: %v", small.Scheme)
	}
	large := recommend(t, q(5e8), GoalBalanced)
	if large.Scheme != PackCompiled {
		t.Errorf("balanced large: %v", large.Scheme)
	}
	// Past the eager limit the fused rendezvous removes the staging
	// pass the pack pipelines still pay, so GoalFastest picks sendv.
	fast := recommend(t, q(1<<20), GoalFastest)
	if fast.Scheme != Sendv {
		t.Errorf("fastest: %v", fast.Scheme)
	}
	// Under the eager limit sendv falls back to the staged path, so
	// the recommendation must not name it.
	fastSmall := recommend(t, q(16<<10), GoalFastest)
	if fastSmall.Scheme == Sendv {
		t.Errorf("fastest under the eager limit recommended sendv")
	}
	// The fused recommendation must rest on an actual price.
	if m := price(t, q(1<<20)).Clean; m[Sendv] <= 0 || m.Ratio(VectorType, Sendv) <= 1 || m[Sendv] >= m[PackCompiled] {
		t.Errorf("cost model does not favour the fused rendezvous at 1 MiB: %+v", m)
	}
	if m := price(t, q(16<<10)).Clean; m[Sendv] != 0 {
		t.Errorf("eager-sized payload priced a fused send: %+v", m)
	}
	// The compiled recommendation must rest on an actual price: the
	// model has to show packing(c) beating the datatype send.
	if m := price(t, q(5e8)).Clean; m.Ratio(VectorType, PackCompiled) <= 1 {
		t.Errorf("cost model does not favour compiled packing at 5e8 B: %+v", m)
	}
	if m := price(t, q(64<<20)); runtime.GOMAXPROCS(0) > 1 && m.Workers <= 1 {
		t.Errorf("no parallel-pack term above the threshold: %+v", m)
	}
	dense := committer(t)(datatype.Contiguous(1<<17, datatype.Float64))
	contig := recommend(t, Query{Type: dense, Profile: prof}, GoalBalanced)
	if contig.Scheme != Reference {
		t.Errorf("contiguous: %v", contig.Scheme)
	}
	for _, r := range []Recommendation{small, large, fast, contig} {
		if strings.TrimSpace(r.Reason) == "" {
			t.Error("recommendation without a reason")
		}
	}
}

// TestPricePipelined pins the pipelined column of the packing cost
// model: priced only where the engine can overlap (rendezvous,
// multi-chunk), always between the fused bound and the serial typed
// send, and degenerating to zero at eager sizes.
func TestPricePipelined(t *testing.T) {
	prof := perfmodel.Generic()
	m := price(t, Query{Bytes: 4 << 20, Profile: prof})
	if m.Clean[TypedPipelined] <= 0 {
		t.Fatalf("4 MiB payload priced no pipelined send: %+v", m)
	}
	if m.Chunks <= 1 || m.Depth < 1 {
		t.Fatalf("pipelined model carries no chunk geometry: %+v", m)
	}
	if m.Clean[TypedPipelined] >= m.Clean[VectorType] {
		t.Errorf("pipelined (%.3g) not below the serial typed send (%.3g)", m.Clean[TypedPipelined], m.Clean[VectorType])
	}
	if sp := m.Clean.Ratio(VectorType, TypedPipelined); sp < 1.3 {
		t.Errorf("pipelined speedup %.2fx at 4 MiB, want >= 1.3x (the acceptance floor)", sp)
	}
	if m.Clean[Sendv] > 0 && m.Clean[TypedPipelined] < m.Clean[Sendv] {
		t.Errorf("pipelined (%.3g) prices below the fused bound (%.3g)", m.Clean[TypedPipelined], m.Clean[Sendv])
	}
	if e := price(t, Query{Bytes: 16 << 10, Profile: prof}); e.Clean[TypedPipelined] != 0 {
		t.Errorf("eager-sized payload priced a pipelined send: %+v", e)
	}
	// GoalFastest prefers fused when it is cheapest, and must fall to
	// the pipelined scheme when the fused path is priced out.
	if rec := recommend(t, Query{Bytes: 4 << 20, Profile: prof}, GoalFastest); rec.Scheme != Sendv {
		t.Errorf("fastest at 4 MiB: %v (fused should win outright)", rec.Scheme)
	}
	if m.Clean[VectorType]/m.Clean[TypedPipelined] <= 1 {
		t.Fatalf("no pipelined headroom to recommend: %+v", m)
	}
}

// TestRecommendCollectivePipelined pins the collective model's
// pipelined-ring column: present for large linear-fan legs, absent at
// tree sizes.
func TestRecommendCollectivePipelined(t *testing.T) {
	p := perfmodel.Generic()
	big := Query{Bytes: 10_000_000, Profile: p, Ranks: 8}
	if m := price(t, big); m.Clean[TypedPipelined] <= 0 {
		t.Fatalf("10 MB legs priced no pipelined ring: %+v", m)
	}
	if m := price(t, Query{Bytes: 1024, Profile: p, Ranks: 8}); m.Clean[TypedPipelined] != 0 {
		t.Errorf("tree-sized legs priced a pipelined ring: %+v", m)
	}
	// Whatever wins, the recommendation must be one of the three
	// engines the model prices, with a reason.
	rec := recommend(t, big, GoalFastest)
	switch rec.Scheme {
	case Sendv, PackCompiled, TypedPipelined:
	default:
		t.Errorf("fastest collective recommended %v", rec.Scheme)
	}
	if strings.TrimSpace(rec.Reason) == "" {
		t.Error("recommendation without a reason")
	}
}

func TestPriceCollective(t *testing.T) {
	p, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	// Rendezvous-sized legs: linear fan, fused legs beat the
	// pack-then-collective pipeline.
	big := price(t, Query{Bytes: 10_000_000, Profile: p, Ranks: 8})
	if big.Tree {
		t.Errorf("10 MB legs priced as tree fan")
	}
	if big.Clean[Sendv] <= 0 || big.Clean[PackCompiled] <= 0 {
		t.Fatalf("non-positive collective costs: %+v", big)
	}
	if sp := big.Clean.Ratio(PackCompiled, Sendv); sp <= 1 {
		t.Errorf("typed collective models %.2fx vs packed at 10 MB, want >1", sp)
	}
	// Latency-sized legs: tree fan.
	if small := price(t, Query{Bytes: 1024, Profile: p, Ranks: 8}); !small.Tree {
		t.Errorf("1 KB legs priced as linear fan")
	}
	// Degenerate shapes.
	if m := price(t, Query{Bytes: 0, Profile: p, Ranks: 8}); m.Clean != (Times{}) {
		t.Errorf("zero-byte collective has nonzero cost %+v", m)
	}
}

func TestRecommendCollective(t *testing.T) {
	p, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	big := Query{Bytes: 10_000_000, Profile: p, Ranks: 8}
	rec := recommend(t, big, GoalFastest)
	if rec.Scheme != Sendv && rec.Scheme != PackCompiled {
		t.Errorf("fastest collective recommended %v", rec.Scheme)
	}
	if sp := price(t, big).Clean.Ratio(PackCompiled, Sendv); sp > 1 && rec.Scheme != Sendv {
		t.Errorf("model favours typed (%.2fx) but recommendation is %v", sp, rec.Scheme)
	}
	if rec := recommend(t, Query{Bytes: 1 << 16, Profile: p, Ranks: 8}, GoalBalanced); rec.Scheme != Sendv {
		t.Errorf("balanced mid-size collective recommended %v, want the typed collectives", rec.Scheme)
	}
}

// TestPricePackingForType: a nested hvector-of-vector whose program
// canonicalises at Commit prices with the normalized kernel terms, and
// never above the same layout priced raw.
func TestPricePackingForType(t *testing.T) {
	prof := perfmodel.Generic()
	in, err := datatype.Vector(64, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	ty := committer(t)(datatype.Hvector(256, 1, in.TrueExtent()+16, in))
	m := price(t, Query{Type: ty, Profile: prof})
	if !m.Normalized {
		t.Fatalf("hvector-of-vector priced raw: %+v", m)
	}
	if m.Bytes != ty.PackSize(1) {
		t.Fatalf("Bytes = %d, want %d", m.Bytes, ty.PackSize(1))
	}
	// The normalized term only amortises bookkeeping, so it must price
	// at or under the raw compiled ladder on the identical stats.
	raw := Cost{Bytes: m.Bytes}
	raw.priceClean(ty.Stats(1), false, prof)
	if m.Clean[PackCompiled] > raw.Clean[PackCompiled] {
		t.Fatalf("normalized compiled pack %g prices above raw %g", m.Clean[PackCompiled], raw.Clean[PackCompiled])
	}
	if raw.Normalized {
		t.Fatal("raw ladder claims normalized pricing")
	}

	// An irregular indexed layout keeps the raw ladder.
	ib := committer(t)(datatype.IndexedBlock(1, []int{0, 3, 7, 12, 14, 21}, datatype.Float64))
	if im := price(t, Query{Type: ib, Profile: prof}); im.Normalized {
		t.Fatalf("irregular indexed layout priced normalized: %+v", im)
	}
}

// TestRecommendForType: dense types get the reference scheme; a
// non-contiguous derived type walks the same ladder as the canonical
// layout.
func TestRecommendForType(t *testing.T) {
	prof := perfmodel.Generic()
	dense := committer(t)(datatype.Contiguous(1024, datatype.Float64))
	if r := recommend(t, Query{Type: dense, Profile: prof}, GoalFastest); r.Scheme != Reference {
		t.Fatalf("dense type recommended %v, want Reference", r.Scheme)
	}
	vec := committer(t)(datatype.Vector(1<<17, 1, 2, datatype.Float64))
	if r := recommend(t, Query{Type: vec, Profile: prof}, GoalFastest); r.Scheme == Reference {
		t.Fatal("strided vector recommended the reference scheme")
	}
}

// TestPriceCollectiveTwoLevel pins the hierarchy column: zero on flat
// machines, positive and faster than the flat fan on a hierarchical
// installation with a strong intra-node latency discount at
// latency-bound sizes.
func TestPriceCollectiveTwoLevel(t *testing.T) {
	flat := price(t, Query{Bytes: 1024, Profile: perfmodel.Generic(), Ranks: 64})
	if flat.TwoLevel != 0 || flat.Nodes != 1 {
		t.Fatalf("flat machine priced a two-level fan: %+v", flat)
	}
	p := perfmodel.Generic()
	p.Mem.NodeSize = 8
	p.IntraNodeLatency = p.NetLatency / 10
	hier := price(t, Query{Bytes: 1024, Profile: p, Ranks: 64})
	if hier.Nodes != 8 {
		t.Fatalf("64 ranks at 8 per node priced %d nodes", hier.Nodes)
	}
	if hier.TwoLevel <= 0 {
		t.Fatalf("hierarchical machine priced no two-level fan: %+v", hier)
	}
	if sp := hier.Clean[Sendv] / hier.TwoLevel; sp <= 1 {
		t.Errorf("two-level fan models %.2fx vs flat at 64 ranks, want >1", sp)
	}
	// Communicator inside one node: the hierarchy buys nothing.
	if m := price(t, Query{Bytes: 1024, Profile: p, Ranks: 8}); m.TwoLevel != 0 {
		t.Errorf("intra-node fan priced a two-level schedule: %+v", m)
	}
}

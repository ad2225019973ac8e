package guidelines

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsim"
	"repro/internal/perfmodel"
)

func TestRuleAndCellFormatting(t *testing.T) {
	if got := len(Rules()); got != int(numRules) {
		t.Fatalf("Rules() has %d entries, want %d", got, numRules)
	}
	for _, r := range Rules() {
		if r.String() == "" || r.String() == fmt.Sprintf("rule(%d)", int(r)) {
			t.Errorf("rule %d has no name", int(r))
		}
	}
	c := Cell{Rule: TypedVsPack, Profile: "skx-impi", Layout: "alt", Bytes: 8192, Ranks: 2}
	if got, want := c.Key(), "typed<=pack+send|skx-impi|alt|8192|2"; got != want {
		t.Errorf("Key() = %q, want %q", got, want)
	}
}

func TestParseBaseline(t *testing.T) {
	b, err := ParseBaseline("# comment\n\nk|p|l|8|2 1.25  # trailing note\n")
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := b.Waived("k|p|l|8|2"); !ok || r != 1.25 {
		t.Errorf("Waived = %v,%v, want 1.25,true", r, ok)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
	for _, bad := range []string{"key-without-ratio\n", "k 0\n", "k -1\n", "k x\n", "a b c\n"} {
		if _, err := ParseBaseline(bad); err == nil {
			t.Errorf("ParseBaseline(%q) accepted", bad)
		}
	}
	// The embedded baseline must always parse.
	if LoadBaseline() == nil {
		t.Fatal("embedded baseline failed to load")
	}
}

// TestGateSyntheticViolation is the gate's negative test: an injected
// violation not in the baseline fails the gate, a waived one within
// slack passes, and a waived one that worsened past the slack fails
// again.
func TestGateSyntheticViolation(t *testing.T) {
	mk := func(ratio float64) Result {
		return Result{
			Cell:    Cell{Rule: TypedVsPack, Profile: "synthetic", Layout: "alt", Bytes: 4096, Ranks: 2},
			LhsName: "vector type", RhsName: "packing(v)",
			Lhs: ratio, Rhs: 1, Ratio: ratio, Violated: ratio > 1.05,
		}
	}
	rp := &Report{Tolerance: 1.05, Results: []Result{mk(1.5)}}

	empty, err := ParseBaseline("")
	if err != nil {
		t.Fatal(err)
	}
	if fresh := empty.Gate(rp); len(fresh) != 1 {
		t.Fatalf("synthetic violation passed an empty baseline: %v", fresh)
	}

	waived, err := ParseBaseline(mk(0).Key() + " 1.5\n")
	if err != nil {
		t.Fatal(err)
	}
	if fresh := waived.Gate(rp); len(fresh) != 0 {
		t.Fatalf("waived violation failed the gate: %v", fresh)
	}
	worse := &Report{Tolerance: 1.05, Results: []Result{mk(1.5 * BaselineSlack * 1.01)}}
	if fresh := waived.Gate(worse); len(fresh) != 1 {
		t.Fatal("violation worsened past the slack but passed the gate")
	}
	// A clean report passes any baseline.
	clean := &Report{Tolerance: 1.05, Results: []Result{mk(0.9)}}
	if fresh := empty.Gate(clean); len(fresh) != 0 {
		t.Fatalf("clean report failed the gate: %v", fresh)
	}
}

// TestSweepGate is the property suite over the full acceptance grid:
// every rule on every (profile × layout × size) cell, diffed against
// the checked-in baseline. Any new violation fails here exactly as it
// would in CI.
func TestSweepGate(t *testing.T) {
	cfg := DefaultConfig()
	if testing.Short() {
		cfg.Profiles = []string{"skx-impi"}
		cfg.Sizes = []int64{8 << 10, 1 << 20}
	}
	rp, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rp.Results) == 0 {
		t.Fatal("empty sweep")
	}
	for _, fresh := range LoadBaseline().Gate(rp) {
		t.Errorf("new violation: %s (%s)", fresh, fresh.Attribution())
	}
}

// TestSweepAtRankCounts runs the collective rules at every world size
// from 1 to 8 — the table-driven rank sweep of the property suite
// (race coverage comes from the simulated ranks' goroutines).
func TestSweepAtRankCounts(t *testing.T) {
	base := LoadBaseline()
	for ranks := 1; ranks <= 8; ranks++ {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			rp, err := Sweep(Config{
				Profiles: []string{"skx-impi", "ls5-cray"},
				Layouts:  []LayoutSpec{{Name: "alt", BlockLen: 1, Stride: 2}},
				Sizes:    []int64{64 << 10},
				Ranks:    ranks,
				Reps:     2,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, fresh := range base.Gate(rp) {
				t.Errorf("new violation at %d ranks: %s", ranks, fresh)
			}
		})
	}
}

// TestTreeGateRegression pins the engine fix this verifier surfaced:
// on ls5-cray (8 KiB eager limit) a 4-rank gather of 8 KiB
// contributions must NOT run the binomial tree — the aggregated
// second-round hop (16 KiB) would fall into rendezvous and lose to
// the linear fan, the collective<=p2p violation of the original
// sweep. Installations with roomier eager limits keep the tree.
func TestTreeGateRegression(t *testing.T) {
	ls5, err := perfmodel.ByName("ls5-cray")
	if err != nil {
		t.Fatal(err)
	}
	skx, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	if got := perfmodel.TreeAggregateHop(4, 8192); got != 16384 {
		t.Errorf("TreeAggregateHop(4, 8192) = %d, want 16384", got)
	}
	if ls5.UseCollectiveTree(4, 8192) {
		t.Error("ls5-cray still trees a 4-rank 8 KiB gather (aggregated hop exceeds eager)")
	}
	if !skx.UseCollectiveTree(4, 8192) {
		t.Error("skx-impi stopped treeing a 4-rank 8 KiB gather (hops stay eager there)")
	}
	// And the measured cell itself stays clean.
	rp, err := Sweep(Config{
		Profiles: []string{"ls5-cray"},
		Layouts:  []LayoutSpec{{Name: "block8", BlockLen: 8, Stride: 16}},
		Sizes:    []int64{8 << 10},
		Ranks:    4,
		Reps:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rp.Results {
		if r.Rule == CollectiveVsP2P && r.Violated {
			t.Errorf("regressed: %s", r)
		}
	}
}

// TestSelfTunedRecommenderSatisfiesGuidelines is the closing
// acceptance property: train an observed hierarchy from the measured
// scheme table of each calibrated installation, and the self-tuned
// recommender's choice must satisfy the recommender guideline — its
// measured virtual-clock time within tolerance of the measured best —
// on every cell of the grid, including the knl-impi cells where the
// raw typed-vs-pack guideline is waived (the tuned recommender simply
// stops picking the typed send there).
func TestSelfTunedRecommenderSatisfiesGuidelines(t *testing.T) {
	const tol = 1.05
	sizes := []int64{8 << 10, 256 << 10, 4 << 20}
	lay := LayoutSpec{Name: "alt", BlockLen: 1, Stride: 2}
	for _, name := range []string{"skx-impi", "ls5-cray", "knl-impi"} {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := memsim.NewObservedHierarchy()
		table := make(map[int64]map[core.Scheme]float64)
		opt := harness.Options{Reps: 3, FlushCache: true, OutlierSigma: 0}
		for _, n := range sizes {
			w := workloadFor(lay, n)
			times := make(map[core.Scheme]float64)
			for _, s := range p2pSchemes {
				m, err := harness.Measure(p, s, w, opt)
				if err != nil {
					t.Fatal(err)
				}
				times[s] = m.Time()
			}
			table[n] = times
			o.Observe(memsim.PathTypedSend, w.Bytes(), times[core.VectorType])
			o.Observe(memsim.PathPackedSend, w.Bytes(), times[core.PackCompiled])
		}
		for _, n := range sizes {
			w := workloadFor(lay, n)
			rec, err := core.Recommend(core.Query{Bytes: w.Bytes(), Profile: p, Observed: o}, core.GoalFastest)
			if err != nil {
				t.Fatal(err)
			}
			times := table[n]
			chosen, ok := times[rec.Scheme]
			if !ok {
				t.Fatalf("%s n=%d: tuned recommendation %v not in the measured table", name, n, rec.Scheme)
			}
			best := chosen
			for _, tm := range times {
				if tm < best {
					best = tm
				}
			}
			if chosen > best*tol {
				t.Errorf("%s n=%d: self-tuned choice %v measured %.3g s, best %.3g s (ratio %.3f)",
					name, n, rec.Scheme, chosen, best, chosen/best)
			}
		}
	}
}

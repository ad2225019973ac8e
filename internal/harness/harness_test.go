package harness

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/perfmodel"
)

func fastOpts() Options {
	o := DefaultOptions()
	o.Reps = 4
	o.MaxRealBytes = 1 << 20
	return o
}

func TestMeasureAllSchemesReal(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := core.ForBytes(64 << 10)
	for _, s := range core.Schemes() {
		m, err := Measure(prof, s, w, opt)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if m.Time() <= 0 {
			t.Errorf("%v: non-positive time", s)
		}
		if !m.Verified {
			t.Errorf("%v: payload not verified", s)
		}
		if m.Bytes != w.Bytes() {
			t.Errorf("%v: bytes = %d", s, m.Bytes)
		}
	}
}

// TestSendvMeasurementFusedAttribution pins the fused-vs-staged
// attribution the harness carries: a rendezvous-sized sendv cell moves
// every ping through the fused engine with zero staged traffic and in
// less time than the staged datatype send, while a vector-type cell
// of the same size reports only staged traffic.
func TestSendvMeasurementFusedAttribution(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	opt.MaxRealBytes = 4 << 20
	w := core.ForBytes(1 << 20) // over the 64 KiB eager limit: rendezvous
	fused, err := Measure(prof, core.Sendv, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !fused.Verified {
		t.Error("sendv payload not verified")
	}
	if fused.PlanStats.FusedOps < int64(opt.Reps) || fused.PlanStats.FusedBytes < int64(opt.Reps)*w.Bytes() {
		t.Errorf("sendv cell fused attribution too low: %v", fused.PlanStats)
	}
	if fused.PlanStats.StagedOps != 0 {
		t.Errorf("sendv cell recorded staged transfers: %v", fused.PlanStats)
	}
	typed, err := Measure(prof, core.VectorType, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The staged datatype send streams through the internal chunk
	// loop (its receive side is contiguous, so no unpack staging);
	// none of its traffic may claim the fused engine.
	if typed.PlanStats.ChunkOps == 0 {
		t.Errorf("vector-type cell recorded no chunked streaming: %v", typed.PlanStats)
	}
	if typed.PlanStats.FusedOps != 0 {
		t.Errorf("vector-type cell recorded fused transfers: %v", typed.PlanStats)
	}
	if !(fused.Time() < typed.Time()) {
		t.Errorf("sendv %.3gs not under the staged datatype send %.3gs", fused.Time(), typed.Time())
	}
}

func TestMeasureDeterministic(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := core.ForBytes(1 << 16)
	a, err := Measure(prof, core.VectorType, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Measure(prof, core.VectorType, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time() != b.Time() {
		t.Fatalf("model times differ across runs: %g vs %g", a.Time(), b.Time())
	}
}

// TestNegativeRepsRejected: a negative repetition count is an error
// naming the option, returned before any world starts; zero still
// means the paper's 20.
func TestNegativeRepsRejected(t *testing.T) {
	_, err := Measure(perfmodel.Generic(), core.Reference, core.ForBytes(1024), Options{Reps: -1})
	if err == nil || !strings.Contains(err.Error(), "Options.Reps -1") || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Reps -1: err = %v, want an error naming Options.Reps", err)
	}
	m, err := Measure(perfmodel.Generic(), core.Reference, core.ForBytes(1024), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Times) != 20 {
		t.Fatalf("Reps 0: %d ping-pongs, want 20", len(m.Times))
	}
}

func TestVirtualAndRealAgree(t *testing.T) {
	// The virtual-payload fast path must not change the model's time;
	// it only skips the byte movement.
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := core.ForBytes(1 << 18)
	real, err := Measure(prof, core.PackVector, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	wv := w
	wv.Virtual = true
	virt, err := Measure(prof, core.PackVector, wv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if real.Time() != virt.Time() {
		t.Fatalf("virtual (%g) and real (%g) times diverge", virt.Time(), real.Time())
	}
}

func TestNoFlushHelpsIntermediate(t *testing.T) {
	// §4.6: skipping the inter-ping-pong cache flush helps
	// intermediate sizes.
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := core.ForBytes(1 << 20)
	flushed, err := Measure(prof, core.Copying, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	o2 := opt
	o2.FlushCache = false
	warm, err := Measure(prof, core.Copying, w, o2)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Time() >= flushed.Time() {
		t.Fatalf("warm caches (%g) not faster than flushed (%g)", warm.Time(), flushed.Time())
	}
}

func TestEagerLimitOverride(t *testing.T) {
	// §4.5: raising the eager limit above the message size turns a
	// rendezvous send into an eager one and must not slow it down at
	// large sizes.
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := core.ForBytes(100 << 20)
	w.Virtual = true
	def, err := Measure(prof, core.Reference, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	big := *prof
	big.EagerLimit = 1 << 30
	raised, err := Measure(&big, core.Reference, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	rel := (raised.Time() - def.Time()) / def.Time()
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.1 {
		t.Fatalf("raising the limit changed the large-message time by %.1f%% (paper: not appreciable)", rel*100)
	}
}

func TestWorkloadsVirtualCap(t *testing.T) {
	opt := fastOpts()
	ws := Workloads([]int64{1 << 10, 1 << 25}, opt)
	if ws[0].Virtual {
		t.Error("small workload marked virtual")
	}
	if !ws[1].Virtual {
		t.Error("over-cap workload not virtual")
	}
}

// TestVirtualCellChunkAttribution pins that a virtual 10⁹-byte cell
// still attributes every internal chunk of every ping: the staged
// datatype send to the chunk counters, the pipelined one to the
// pipelined counters.
func TestVirtualCellChunkAttribution(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	w := Workloads([]int64{1e9}, opt)[0]
	want := int64(opt.Reps) * prof.Chunks(w.Bytes())
	for _, s := range []core.Scheme{core.VectorType, core.TypedPipelined} {
		m, err := Measure(prof, s, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := m.PlanStats.ChunkOps
		if s == core.TypedPipelined {
			got = m.PlanStats.PipelinedOps
		}
		if got != want {
			t.Errorf("%v: %d chunks attributed, want %d pings × %d chunks: %v", s, got, opt.Reps, prof.Chunks(w.Bytes()), m.PlanStats)
		}
	}
}

func TestLogSizes(t *testing.T) {
	sizes := LogSizes(1_000, 1_000_000, 3)
	if len(sizes) < 9 {
		t.Fatalf("too few points: %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not strictly increasing: %v", sizes)
		}
		if sizes[i]%core.ElemSize != 0 {
			t.Fatalf("size %d not element aligned", sizes[i])
		}
	}
	if sizes[0] > 1_000 || sizes[len(sizes)-1] < 999_000 {
		t.Fatalf("range not covered: %v", sizes)
	}
}

func TestDismissalNeverNeededInModel(t *testing.T) {
	// §3.2: "in practice this test is never needed" — deterministic
	// virtual timing must never trigger the 1-σ dismissal.
	prof := perfmodel.Generic()
	opt := fastOpts()
	opt.Reps = 10
	for _, n := range []int64{1 << 10, 1 << 18, 1 << 24} {
		ws := Workloads([]int64{n}, opt)
		ms, err := MeasureSweep(prof, core.VectorType, ws, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ms[0].Dismissed != 0 {
			t.Errorf("size %d: %d measurements dismissed", n, ms[0].Dismissed)
		}
	}
}

// TestGridMatchesPrivateFixtures: sharing one fixture set across a grid
// changes nothing that is measured. Every row of the grid equals the
// same scheme swept with a private set per cell, and every cell equals
// the one-cell Measure, on two installations, with the cache flushed
// between ping-pongs and left warm.
func TestGridMatchesPrivateFixtures(t *testing.T) {
	same := func(t *testing.T, what string, got, want Measurement) {
		t.Helper()
		if !slices.Equal(got.Times, want.Times) || got.Dismissed != want.Dismissed ||
			got.Summary != want.Summary || got.Verified != want.Verified {
			t.Errorf("%s: %v %d bytes: grid {%v %d %+v %v}, private fixtures {%v %d %+v %v}", what, got.Scheme, got.Bytes,
				got.Times, got.Dismissed, got.Summary, got.Verified, want.Times, want.Dismissed, want.Summary, want.Verified)
		}
	}
	variants := []struct {
		name string
		vary func(*Options)
	}{
		{"flushed", func(*Options) {}},
		{"warm", func(o *Options) { o.FlushCache = false }},
	}
	for _, name := range []string{"skx-impi", "knl-impi"} {
		prof, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			t.Run(name+"/"+v.name, func(t *testing.T) {
				opt := fastOpts()
				v.vary(&opt)
				if raceEnabled {
					opt.MaxRealBytes = 100_000 // instrumented byte loops: keep the 10⁶ cell virtual
				}
				ws := Workloads(LogSizes(1_000, 1_000_000_000, 1), opt)
				schemes := core.Schemes()
				grid, err := MeasureGrid(prof, schemes, ws, opt)
				if err != nil {
					t.Fatal(err)
				}
				for si, s := range schemes {
					row, err := measureWorld(prof, s, ws, opt, nil)
					if err != nil {
						t.Fatal(err)
					}
					for wi, w := range ws {
						if grid[si][wi].Verified == w.Virtual {
							t.Errorf("%v %d bytes: Verified = %v", s, w.Bytes(), !w.Virtual)
						}
						same(t, "row", grid[si][wi], row[wi])
						cell, err := Measure(prof, s, w, opt)
						if err != nil {
							t.Fatal(err)
						}
						alone, err := measureWorld(prof, s, []core.Workload{w}, opt, nil)
						if err != nil {
							t.Fatal(err)
						}
						same(t, "cell", cell, alone[0])
					}
				}
			})
		}
	}
}

// TestGridHandsOnFixtures: a grid over the workloads of the grid that
// finished before it runs on that grid's fixture set and measures the
// same, payloads verified; grids running at once each get a set of
// their own.
func TestGridHandsOnFixtures(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	if raceEnabled {
		opt.MaxRealBytes = 100_000 // instrumented byte loops: keep the 10⁶ cell virtual
	}
	ws := Workloads(LogSizes(1_000, 1_000_000, 1), opt)
	measure := func() [][]Measurement {
		grid, err := MeasureGrid(prof, core.Schemes(), ws, opt)
		if err != nil {
			t.Error(err)
		}
		return grid
	}
	same := func(what string, grid, want [][]Measurement) {
		for si := range want {
			for wi, m := range want[si] {
				g := grid[si][wi]
				if !slices.Equal(g.Times, m.Times) || g.Summary != m.Summary || g.Verified != m.Verified || g.Verified == ws[wi].Virtual {
					t.Errorf("%s: %v %d bytes: {%v %+v %v}, first grid {%v %+v %v}", what, m.Scheme, m.Bytes,
						g.Times, g.Summary, g.Verified, m.Times, m.Summary, m.Verified)
				}
			}
		}
	}
	first := measure()
	kept := spareFixtures.fx
	same("second grid", measure(), first)
	if kept == nil || spareFixtures.fx != kept {
		t.Fatalf("the second grid did not run on the first grid's fixture set")
	}
	grids := make([][][]Measurement, 3)
	var wg sync.WaitGroup
	for i := range grids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grids[i] = measure()
		}()
	}
	wg.Wait()
	for _, g := range grids {
		if g != nil {
			same("concurrent grid", g, first)
		}
	}
}

// TestPlanStatsExcludeOracle: the expected payload is packed when the
// fixture set is built, so a cell's PlanStats holds the pings' packs
// and nothing of the verification.
func TestPlanStatsExcludeOracle(t *testing.T) {
	prof := perfmodel.Generic()
	opt := fastOpts()
	ws := Workloads([]int64{4 << 10, 256 << 10}, opt)
	verified, err := MeasureSweep(prof, core.PackCompiled, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Verify = false
	unverified, err := MeasureSweep(prof, core.PackCompiled, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range verified {
		if !m.Verified || unverified[i].Verified {
			t.Fatalf("%d bytes: Verified = %v with and %v without Options.Verify", m.Bytes, m.Verified, unverified[i].Verified)
		}
		ps := m.PlanStats
		if ps.StrideOps != int64(opt.Reps) || ps.StrideBytes != int64(opt.Reps)*m.Bytes {
			t.Errorf("%d bytes: %d stride-kernel packs of %d bytes in the window, want the %d pings'", m.Bytes, ps.StrideOps, ps.StrideBytes, opt.Reps)
		}
		if ps != unverified[i].PlanStats {
			t.Errorf("%d bytes: verification shows in PlanStats: %v with, %v without", m.Bytes, ps, unverified[i].PlanStats)
		}
	}
}

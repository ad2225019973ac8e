package figures

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
)

// study returns a fresh copy of the named table entry.
func study(t *testing.T, name string) *Study {
	t.Helper()
	for _, st := range Studies() {
		if st.Name == name {
			return st
		}
	}
	t.Fatalf("no study %q", name)
	return nil
}

func run(t *testing.T, st *Study, sweep []int64, opt harness.Options) *Result {
	t.Helper()
	r, err := st.Run("skx-impi", sweep, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// planLine matches E12's per-size kernel attribution. Those lines read
// the process-global datatype.PlanStats, whose plan cache is warmed by
// whatever ran earlier in the process: two runs of the same tree
// printed compiled=0 and compiled=1 for the same 1 MB cell, so
// TestStudiesGolden masks them before it compares. ROADMAP item 3,
// which takes the global PlanStats away, deletes the mask.
var planLine = regexp.MustCompile(`(?m)^ +\d+ B  plan\{.*\}$`)

// TestStudiesGolden renders E5–E12 on skx-impi at two points per decade,
// two reps and payloads over 1 MiB virtual, with E9 at four pairs, and
// compares each study's text, line by line and with E12's plan lines
// masked, with the store's block "studies.<name>"; the block "studies"
// lists those blocks. A study missing from the table fails. The rows
// were recorded from the output of the per-study functions the table
// replaced.
func TestStudiesGolden(t *testing.T) {
	opt := harness.DefaultOptions()
	opt.Reps = 2
	opt.MaxRealBytes = 1 << 20
	var blocks []string
	for _, name := range strings.Fields("eager cache spacing blocks nodes check what-if plan") {
		st := study(t, name)
		if name == "nodes" {
			st.Points = st.Points[:4]
		}
		var out strings.Builder
		if err := run(t, st, DefaultSizes(2), opt).Render(&out); err != nil {
			t.Fatal(err)
		}
		text := planLine.ReplaceAllString(out.String(), "<plan stats>")
		blocks = append(blocks, "studies."+name)
		oracle.Golden(t, blocks[len(blocks)-1], strings.Split(strings.TrimSuffix(text, "\n"), "\n"))
	}
	oracle.Golden(t, "studies", blocks)
}

// planCache matches the plan-cache hit/miss counter of a printed
// PlanStats delta. It reads the process-global plan cache, which
// whatever ran earlier in the process has warmed, so
// TestRendezvousStudiesGolden masks it; ROADMAP item 3, which takes the
// global PlanStats away, deletes the mask.
var planCache = regexp.MustCompile(`cache=\d+/\d+`)

// TestRendezvousStudiesGolden renders E16 (pipeline) and E18 (chaos),
// the two studies that drive SendpType, on the four paper
// installations at cmd/figures' defaults, and compares each study ×
// installation's text with the store's block "<study>.<profile>"; the
// block "rendezvous" lists those blocks. Both studies print only
// virtual-clock numbers, fault counters and plan counters of their own
// transfers, so apart from the masked cache counter the rows pin no
// core count and no garbage-collector timing.
func TestRendezvousStudiesGolden(t *testing.T) {
	var blocks []string
	for _, name := range []string{"pipeline", "chaos"} {
		for _, p := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
			r, err := study(t, name).Run(p, DefaultSizes(4), harness.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := r.Render(&out); err != nil {
				t.Fatal(err)
			}
			text := planCache.ReplaceAllString(out.String(), "cache=H/M")
			blocks = append(blocks, name+"."+p)
			oracle.Golden(t, blocks[len(blocks)-1], strings.Split(strings.TrimSuffix(text, "\n"), "\n"))
		}
	}
	oracle.Golden(t, "rendezvous", blocks)
}

// TestStudyClaims checks every claim of the table on skx-impi: the
// paper's statements on E5–E12 and each closing line of E15–E21. Rows
// that cap their repetitions run at the cap, and the rank axes stop at
// the cells their claims read. Every row first rejects an installation
// no profile names, with an error that names it.
func TestStudyClaims(t *testing.T) {
	for _, st := range Studies() {
		o := shapeOpts()
		if _, err := st.Run("no-such-profile", nil, o); err == nil || !strings.Contains(err.Error(), `"no-such-profile"`) {
			t.Errorf("%s %s: unknown installation gave %v, want an error naming it", st.ID, st.Title, err)
		}
		switch st.Name {
		case "nodes":
			st.Points = st.Points[:4]
		case "chaos":
			st.Points = []float64{0, 0.05}
		case "scale":
			st.Points = []float64{64, 256}
		case "chaosscale":
			st.Points = st.Points[:2]
		}
		if st.MaxReps > 0 {
			o.Reps = st.MaxReps
		}
		r := run(t, st, []int64{1_000_000, 100_000_000, 1_000_000_000}, o)
		for _, c := range st.Claims {
			if v := c.Value(r); !c.Holds(v) {
				t.Errorf("%s %s: %s = %.3f breaks the paper's claim", st.ID, st.Title, c.Metric, v)
			}
		}
	}
}

func TestNodeScalingNoDegradation(t *testing.T) {
	st := study(t, "nodes")
	st.Points = st.Points[:4]
	opt := harness.DefaultOptions()
	opt.Reps = 3
	ts := run(t, st, nil, opt).Series(Curve{Scheme: core.VectorType}).Y
	if len(ts) != 4 {
		t.Fatalf("measured %d pair configurations, want 4", len(ts))
	}
	for i, x := range ts[1:] {
		if d := (x - ts[0]) / ts[0]; d > 0.01 {
			t.Errorf("pair-0 degraded %.2f%% with %d concurrent pairs (paper: none)", d*100, i+2)
		}
	}
}

func TestCostModelCheckFactors(t *testing.T) {
	r := run(t, study(t, "check"), nil, shapeOpts())
	factor := func(a, b core.Scheme) float64 { return r.last(over(a, b)) }
	if f := factor(core.Copying, core.Reference); f < 2.3 || f > 4.2 {
		t.Errorf("copying/reference = %.2f, want ≈3", f)
	}
	if f := factor(core.PackVector, core.Copying); f < 0.95 || f > 1.05 {
		t.Errorf("packing(v)/copying = %.2f, want ≈1", f)
	}
	if f := factor(core.VectorType, core.Copying); f <= 1 {
		t.Errorf("vector/copying = %.2f, want >1", f)
	}
	if f := factor(core.Buffered, core.Copying); f <= 1 {
		t.Errorf("buffered/copying = %.2f, want >1", f)
	}
	if f := factor(core.PackElement, core.Copying); f < 2 {
		t.Errorf("packing(e)/copying = %.2f, want ≫1", f)
	}
	var out bytes.Buffer
	if err := r.Render(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E10") {
		t.Error("render missing study id")
	}
}

func TestEagerStudyShape(t *testing.T) {
	r := run(t, study(t, "eager"), nil, shapeOpts())
	// The per-byte reference curve must show a bump just over the
	// limit relative to just under it (the protocol-switch drop).
	ref := r.Series(Curve{Scheme: core.Reference})
	limit := float64(r.Profile.EagerLimit)
	var under, over float64
	for i, x := range ref.X {
		if x <= limit {
			under = ref.Y[i]
		}
		if x > limit && over == 0 {
			over = ref.Y[i]
		}
	}
	if over <= under {
		t.Errorf("no eager drop: %.3f ns/B under vs %.3f ns/B over the limit", under, over)
	}
}

func TestCacheStudyShape(t *testing.T) {
	r := run(t, study(t, "cache"), nil, shapeOpts())
	// Warm caches never make the copying scheme slower.
	speedup := r.Series(Curve{Scheme: core.Copying, Variant: "flushed", Over: &Curve{Scheme: core.Copying, Variant: "warm"}})
	for i, y := range speedup.Y {
		if y < 0.99 {
			t.Errorf("warm run slower at %g bytes: %.2fx", speedup.X[i], y)
		}
	}
}

func TestSpacingStudyMonotone(t *testing.T) {
	st := study(t, "spacing")
	st.Bytes = 2 << 20
	r := run(t, st, nil, shapeOpts())
	for _, s := range []core.Scheme{core.Copying, core.VectorType} {
		ts := r.Series(Curve{Scheme: s}).Y
		if ts[len(ts)-1] <= ts[0] {
			t.Errorf("%v: full jitter (%g) not slower than regular (%g)", s, ts[len(ts)-1], ts[0])
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] < ts[i-1]*0.999 {
				t.Errorf("%v: time fell from %g to %g at jitter %g", s, ts[i-1], ts[i], st.Points[i])
			}
		}
	}
}

func TestBlockSizeStudyMonotone(t *testing.T) {
	st := study(t, "blocks")
	st.Bytes = 2 << 20
	r := run(t, st, nil, shapeOpts())
	for _, s := range []core.Scheme{core.Copying, core.VectorType} {
		ts := r.Series(Curve{Scheme: s}).Y
		if ts[len(ts)-1] >= ts[0] {
			t.Errorf("%v: 64-element blocks (%g) not faster than single elements (%g)", s, ts[len(ts)-1], ts[0])
		}
	}
}

func TestPackPlanStudyShape(t *testing.T) {
	o := shapeOpts()
	o.MaxRealBytes = 1 << 20 // real payloads: exercise the kernels, not just accounting
	sizes := []int64{8 << 10, 256 << 10, 8 << 20}
	r := run(t, study(t, "plan"), sizes, o)
	speedup := r.Series(Curve{Scheme: core.PackCompiled, Over: &Curve{Scheme: core.PackVector}})
	if speedup.Len() != len(sizes) {
		t.Fatalf("speedup has %d points, want %d", speedup.Len(), len(sizes))
	}
	// The compiled engine amortises the per-segment bookkeeping, so it
	// must never lose to interpretation and must win visibly on the
	// small-block canonical layout at large sizes.
	for i, y := range speedup.Y {
		if y < 0.99 {
			t.Errorf("size %d: compiled slower than interpreted (%.3fx)", sizes[i], y)
		}
	}
	if s, _ := speedup.Nearest(8 << 20); s <= 1.0 {
		t.Errorf("compiled speedup at 8 MB = %.3fx, want > 1", s)
	}
	// Every real compiled cell must attribute its pack traffic to a
	// compiled kernel (the canonical workload is a regular stride).
	for _, m := range r.series[r.key(Curve{Scheme: core.PackCompiled})] {
		if m.Bytes <= o.MaxRealBytes && m.PlanStats.StrideOps == 0 {
			t.Errorf("size %d: no stride-kernel executions in compiled sweep: %v", m.Bytes, m.PlanStats)
		}
	}
}

func TestPipeliningStudyRecoversReference(t *testing.T) {
	sizes := []int64{1_000_000, 100_000_000, 1_000_000_000}
	st := study(t, "what-if")
	r := run(t, st, sizes, shapeOpts())
	// §2.3 / ref [2]: with NIC pipelining a derived-type send would
	// perform "similarly to the reference case" — slowdown must
	// approach 1–2 at large sizes, far below the measured ≈6.
	base := r.last(Curve{Scheme: core.VectorType, Over: &Curve{Scheme: core.Reference}})
	piped := r.last(Curve{Scheme: core.VectorType, Variant: "pipelined", Over: &Curve{Scheme: core.Reference}})
	if base < 4 {
		t.Fatalf("baseline vector-type slowdown at 1 GB = %.2f, expected the degraded ≈6", base)
	}
	if piped > 2.2 {
		t.Fatalf("pipelined vector-type slowdown at 1 GB = %.2f, expected ≈1–2 (ref [2])", piped)
	}
}

// TestMeasurementPlanStats pins the harness surfacing: a packing(c)
// measurement window attributes bytes to compiled kernels with plan
// cache hits after the first rep, while the derived-type scheme's
// chunked rendezvous streaming runs on the compiled-chunked tier (the
// cursor is only the true fallback).
func TestMeasurementPlanStats(t *testing.T) {
	prof, err := perfmodel.ByName("skx-impi")
	if err != nil {
		t.Fatal(err)
	}
	o := shapeOpts()
	o.MaxRealBytes = 16 << 20
	w := core.ForBytes(4 << 20)

	m, err := harness.Measure(prof, core.PackCompiled, w, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.PlanStats.CompiledBytes() == 0 {
		t.Errorf("packing(c) window shows no compiled bytes: %v", m.PlanStats)
	}
	if m.PlanStats.PlanHits == 0 {
		t.Errorf("packing(c) window shows no plan-cache hits: %v", m.PlanStats)
	}

	// A large derived-type send goes rendezvous: the internal chunk
	// loop must run on the compiled-chunked tier, not the cursor.
	m, err = harness.Measure(prof, core.VectorType, w, o)
	if err != nil {
		t.Fatal(err)
	}
	if m.PlanStats.ChunkBytes == 0 {
		t.Errorf("vector-type rendezvous window shows no compiled-chunked traffic: %v", m.PlanStats)
	}
	if m.PlanStats.CursorBytes != 0 {
		t.Errorf("vector-type rendezvous window fell back to the cursor: %v", m.PlanStats)
	}
}

func TestPipeliningDoesNotChangeBaselineProfiles(t *testing.T) {
	// All measured installations must keep pipelining off (§2.3: "in
	// practice we don't see this performance").
	for _, name := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.NICPipelining {
			t.Errorf("%s ships with pipelining enabled", name)
		}
		q := p.WithPipelining()
		if !q.NICPipelining || p.NICPipelining {
			t.Errorf("WithPipelining mutated the original or failed to set the copy")
		}
		if !strings.Contains(q.Name, name) {
			t.Errorf("derived profile name %q should reference %q", q.Name, name)
		}
	}
}

// TestPingPongStudy runs the §3.2 ping-pong row over every scheme with
// real payloads up to 16 MiB: each cell prints time, min, GB/s,
// dismissed and verified, and every real-payload cell verifies.
func TestPingPongStudy(t *testing.T) {
	opt := harness.DefaultOptions()
	opt.Reps = 3
	sizes := []int64{1_000, 1_000_000, 1_000_000_000}
	r := run(t, study(t, "pingpong"), sizes, opt)
	for _, s := range core.Schemes() {
		ms := r.series[r.key(Curve{Scheme: s})]
		if len(ms) != len(sizes) {
			t.Fatalf("%v: %d cells, want %d", s, len(ms), len(sizes))
		}
		for _, m := range ms {
			if real := m.Bytes <= opt.MaxRealBytes; m.Verified != real {
				t.Errorf("%v at %d B: verified %v, want %v", s, m.Bytes, m.Verified, real)
			}
			if m.Time() <= 0 || m.Summary.Min <= 0 || m.Summary.Min > m.Time() {
				t.Errorf("%v at %d B: time %g, min %g", s, m.Bytes, m.Time(), m.Summary.Min)
			}
		}
	}
	var out bytes.Buffer
	if err := r.Render(&out); err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^\S.* +\d+ +\S+ +\S+ +\S+ +\d+ +(true|false)$`).FindAllString(out.String(), -1)
	if len(rows) != len(core.Schemes())*len(sizes) {
		t.Errorf("render has %d cell rows, want %d:\n%s", len(rows), len(core.Schemes())*len(sizes), out.String())
	}
	for _, want := range []string{"time(s)", "min(s)", "bw(GB/s)", "dismissed", "verified"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("render lacks the %q column", want)
		}
	}
}

package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/harness"
)

// chaosRun measures E18 at the given fault rates and reps.
func chaosRun(t *testing.T, rates []float64, reps int) *Result {
	t.Helper()
	st := study(t, "chaos")
	st.Points = rates
	return run(t, st, nil, harness.Options{Reps: reps})
}

func TestChaosStudy(t *testing.T) {
	r := chaosRun(t, []float64{0, 0.05}, 6)
	engines := r.Panels[0].Curves
	if len(engines) != 3 {
		t.Fatalf("%d engines", len(engines))
	}
	for _, e := range engines {
		at := func(variant string) []float64 { return r.Series(Curve{Name: e.Name, Variant: variant}).Y }
		good, p99, faults, retries := at("goodput"), at("p99"), at("faults"), at("retries")
		if len(good) != 2 || len(p99) != 2 {
			t.Fatalf("%s: sweep lengths %d/%d", e.Name, len(good), len(p99))
		}
		if good[0] <= 0 {
			t.Fatalf("%s: clean baseline failed (goodput=%g)", e.Name, good[0])
		}
		if faults[0] != 0 || retries[0] != 0 {
			t.Fatalf("%s: clean baseline attributed faults (%g) or retries (%g)", e.Name, faults[0], retries[0])
		}
		// The lossy cell, when delivered, must actually have injected
		// and recovered.
		if good[1] > 0 {
			if faults[1] == 0 {
				t.Fatalf("%s: lossy cell injected nothing", e.Name)
			}
			if retries[1] == 0 {
				t.Fatalf("%s: lossy cell recovered without retries", e.Name)
			}
			if good[1] >= good[0] {
				t.Fatalf("%s: faults did not cost goodput (%g vs %g)", e.Name, good[1], good[0])
			}
			if p99[1] <= p99[0] {
				t.Fatalf("%s: faults did not fatten the tail (%g vs %g)", e.Name, p99[1], p99[0])
			}
		}
	}
	model := func(name string) []float64 { return r.Series(Curve{Name: name, Variant: "model"}).Y }
	slowdown, delivery := model("slowdown"), model("delivery")
	if len(slowdown) != 2 {
		t.Fatalf("%d model rows", len(slowdown))
	}
	if slowdown[0] != 1 || delivery[0] != 1 {
		t.Fatalf("clean model row: slowdown %g, delivery %g", slowdown[0], delivery[0])
	}
	if slowdown[1] <= 1 || delivery[1] >= 1 {
		t.Fatalf("lossy model row: slowdown %g, delivery %g", slowdown[1], delivery[1])
	}
	// The observed columns close the loop: the clean row calibrates to
	// zero, the lossy row inverts its measured retries back to a leg
	// loss within the configured resend-class rate and an inflation
	// above one.
	legLoss, obsSlowdown := model("observed leg loss"), model("observed slowdown")
	if legLoss[0] != 0 || obsSlowdown[0] != 1 {
		t.Fatalf("clean observed columns: leg loss %g, slowdown %g", legLoss[0], obsSlowdown[0])
	}
	if got := legLoss[1]; got <= 0 || got > 0.05 {
		t.Fatalf("observed leg loss %g, want in (0, 0.05]", got)
	}
	if obsSlowdown[1] <= 1 {
		t.Fatalf("observed slowdown %g, want > 1", obsSlowdown[1])
	}
	// At a lossy rate the pipelined engine's predicted goodput retention
	// under selective chunk recovery sits strictly above the
	// whole-transfer-replay baseline.
	selective, whole := model("selective"), model("whole replay")
	if selective[0] != 1 || whole[0] != 1 {
		t.Fatalf("clean retention columns: selective %g, whole-replay %g", selective[0], whole[0])
	}
	if !(selective[1] > whole[1]) {
		t.Fatalf("lossy retention columns: selective %.4f vs whole-replay %.4f, want selective strictly above",
			selective[1], whole[1])
	}

	var out bytes.Buffer
	if err := r.Render(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E18", "goodput", "p99", "reliability model", "fastest under faults"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, out.String())
		}
	}
}

func TestChaosStudyDeterministic(t *testing.T) {
	a, b := chaosRun(t, []float64{0.08}, 4), chaosRun(t, []float64{0.08}, 4)
	for _, e := range a.Panels[0].Curves {
		for _, v := range []string{"goodput", "retries"} {
			c := Curve{Name: e.Name, Variant: v}
			if x, y := a.last(c), b.last(c); x != y {
				t.Fatalf("%s %s not deterministic: %g vs %g", e.Name, v, x, y)
			}
		}
	}
}

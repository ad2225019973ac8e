package figures

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestChaosScaleStudy runs E21 at 32 and 64 ranks and pins its
// acceptance criterion: the measured goodput retention under a ≥2%
// fault rate must sit strictly above the measured whole-transfer-replay
// arm — the selective chunk protocol is where the difference comes
// from.
func TestChaosScaleStudy(t *testing.T) {
	st := study(t, "chaosscale")
	st.Points = []float64{32, 64}
	r := run(t, st, nil, harness.Options{})
	var sawChunkRepair bool
	for _, ranks := range st.Points {
		v := fmt.Sprintf("%d ranks", int(ranks))
		at := func(name string) []float64 { return r.Series(Curve{Name: name, Variant: v}).Y }
		rates := r.Series(Curve{Name: "selective", Variant: v}).X
		sel, wr, tail, faults := at("selective"), at("whole replay"), at("tail"), at("faults")
		if len(sel) != 3 {
			t.Fatalf("%s: %d cells, want 3", v, len(sel))
		}
		if sel[0] != 1 {
			t.Errorf("%s: clean baseline ratio %g, want 1", v, sel[0])
		}
		for i := 1; i < len(rates); i++ {
			rate := rates[i]
			if sel[i] <= 0 || sel[i] > 1 {
				t.Errorf("%s @ %.0f%%: goodput ratio %g outside (0,1]", v, 100*rate, sel[i])
				continue
			}
			if wr[i] <= 0 {
				t.Errorf("%s @ %.0f%%: whole-replay arm did not deliver", v, 100*rate)
				continue
			}
			if sel[i] <= wr[i] {
				t.Errorf("%s @ %.0f%%: selective goodput retention %.4f not above measured whole-replay %.4f",
					v, 100*rate, sel[i], wr[i])
			}
			// The faulted cells must attribute their recovery to the
			// selective machinery: injected damage repaired by chunk
			// retransmits, not whole-transfer replays alone.
			if faults[i] == 0 {
				t.Errorf("%s @ %.0f%%: no injected faults recorded", v, 100*rate)
			}
			if at("chunk retx")[i] > 0 {
				sawChunkRepair = true
			}
			if tail[i] < 1 {
				t.Errorf("%s @ %.0f%%: p99 tail deflated ×%.3f under faults", v, 100*rate, tail[i])
			}
		}
	}
	if !sawChunkRepair {
		t.Error("no faulted cell recorded selective chunk retransmits")
	}

	// Model note: selective retention beats whole-replay at every lossy
	// rate and both degrade monotonically.
	model := func(name string) []float64 { return r.Series(Curve{Name: name, Variant: "model"}).Y }
	sel, wr, delivery := model("selective"), model("whole replay"), model("delivery")
	if len(sel) != 3 {
		t.Fatalf("got %d model rows, want 3", len(sel))
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] <= wr[i] {
			t.Errorf("model row %d: selective retention %.4f not above whole-replay %.4f", i, sel[i], wr[i])
		}
		if sel[i] >= sel[i-1] || wr[i] >= wr[i-1] {
			t.Errorf("model row %d: retention not strictly degrading (%.4f/%.4f after %.4f/%.4f)",
				i, sel[i], wr[i], sel[i-1], wr[i-1])
		}
		// The default retry policy retries until the budget clock runs
		// out, so the modeled delivery probability can be 1 exactly.
		if delivery[i] <= 0 || delivery[i] > 1 {
			t.Errorf("model row %d: delivery prob %g outside (0,1]", i, delivery[i])
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E21", "goodput", "chunk retx", "whole-replay retention", "fastest under faults"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

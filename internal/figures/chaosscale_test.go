package figures

import (
	"bytes"
	"strings"
	"testing"
)

// TestChaosScaleStudy runs a compact E21 grid and pins the PR's
// acceptance criterion: the measured pipelined goodput retention under
// a ≥2% fault rate must sit strictly above what the
// whole-transfer-replay baseline predicts — the selective chunk
// protocol is where the difference comes from.
func TestChaosScaleStudy(t *testing.T) {
	ranks := []int{32, 64}
	rates := []float64{0, 0.02, 0.05}
	st, err := BuildChaosScaleStudy("skx-impi", ranks, rates)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != len(ranks)*len(rates) {
		t.Fatalf("got %d cells, want %d", len(st.Cells), len(ranks)*len(rates))
	}
	if len(st.Model) != len(rates) {
		t.Fatalf("got %d model rows, want %d", len(st.Model), len(rates))
	}

	for _, r := range ranks {
		if got := st.CellAt(r, 0).GoodputRatio; got != 1 {
			t.Errorf("%d ranks: clean baseline ratio %g, want 1", r, got)
		}
		for _, rate := range rates[1:] {
			measured := st.CellAt(r, rate).GoodputRatio
			if measured <= 0 || measured > 1 {
				t.Errorf("%d ranks @ %.0f%%: goodput ratio %g outside (0,1]", r, 100*rate, measured)
				continue
			}
			var wr float64
			for _, c := range st.Cells {
				if c.Ranks == r && c.Rate == rate {
					wr = c.WholeReplayRatio
				}
			}
			if wr <= 0 {
				t.Errorf("%d ranks @ %.0f%%: whole-replay arm did not deliver", r, 100*rate)
				continue
			}
			if measured <= wr {
				t.Errorf("%d ranks @ %.0f%%: selective goodput retention %.4f not above measured whole-replay %.4f",
					r, 100*rate, measured, wr)
			}
		}
	}

	// The faulted cells must attribute their recovery to the selective
	// machinery: injected damage repaired by chunk retransmits, not
	// whole-transfer replays alone.
	var sawChunkRepair bool
	for _, c := range st.Cells {
		if c.Rate == 0 || !c.Delivered {
			continue
		}
		if r := c.Recovery; r.Drops+r.Corruptions+r.Truncations == 0 {
			t.Errorf("%d ranks @ %.0f%%: no injected faults recorded: %+v", c.Ranks, 100*c.Rate, c.Recovery)
		}
		if c.Recovery.ChunkRetransmits > 0 {
			sawChunkRepair = true
		}
		if c.TailInflation < 1 {
			t.Errorf("%d ranks @ %.0f%%: p99 tail deflated ×%.3f under faults", c.Ranks, 100*c.Rate, c.TailInflation)
		}
	}
	if !sawChunkRepair {
		t.Error("no faulted cell recorded selective chunk retransmits")
	}

	// Model panel: selective retention beats whole-replay at every
	// lossy rate and both degrade monotonically.
	prev := ChaosScaleModelRow{SelectiveRatio: 1, WholeReplayRatio: 1}
	for i, m := range st.Model {
		if m.Rate == 0 {
			continue
		}
		if m.SelectiveRatio <= m.WholeReplayRatio {
			t.Errorf("rate %.0f%%: selective retention %.4f not above whole-replay %.4f",
				100*m.Rate, m.SelectiveRatio, m.WholeReplayRatio)
		}
		if m.SelectiveRatio >= prev.SelectiveRatio || m.WholeReplayRatio >= prev.WholeReplayRatio {
			t.Errorf("rate %.0f%% (row %d): retention not strictly degrading (%.4f/%.4f after %.4f/%.4f)",
				100*m.Rate, i, m.SelectiveRatio, m.WholeReplayRatio, prev.SelectiveRatio, prev.WholeReplayRatio)
		}
		// The default retry policy retries until the budget clock runs
		// out, so the modeled delivery probability can be 1 exactly.
		if m.DeliveryProb <= 0 || m.DeliveryProb > 1 {
			t.Errorf("rate %.0f%%: delivery prob %g outside (0,1]", 100*m.Rate, m.DeliveryProb)
		}
		prev = m
	}

	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E21", "goodput", "chunk retx", "whole-replay retention", "fastest under faults"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

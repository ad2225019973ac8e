package figures

import (
	"bytes"
	"strings"
	"testing"
)

// TestScaleStudy runs a compact grid including the acceptance cell
// (256 ranks × 4 jobs × 4 in flight → ≥1000 concurrent typed
// transfers across 4 communicators) and checks the panels and the
// attribution render.
func TestScaleStudy(t *testing.T) {
	grid := []ScaleCellSpec{
		{Ranks: 64, Jobs: 2, InFlight: 2, Rounds: 1},
		{Ranks: 256, Jobs: 4, InFlight: 4, Rounds: 1},
	}
	st, err := BuildScaleStudy("skx-impi", grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 2 || st.Throughput.Len() != 2 || st.Tail.Len() != 2 {
		t.Fatalf("cell/panel lengths: %d cells, %d/%d points", len(st.Cells), st.Throughput.Len(), st.Tail.Len())
	}
	if got := st.PeakInFlight(); got < 1000 {
		t.Errorf("peak in flight %d, acceptance wants ≥1000", got)
	}
	for _, c := range st.Cells {
		if c.AggregateGBs <= 0 || c.P99 <= 0 {
			t.Errorf("cell %d ranks: degenerate throughput %g or tail %g", c.Ranks, c.AggregateGBs, c.P99)
		}
		if c.Matching.FastTakes == 0 {
			t.Errorf("cell %d ranks: no fast-path matching attribution", c.Ranks)
		}
		if want := int64(c.Ranks * c.InFlight * c.Rounds); c.Transfers != want {
			t.Errorf("cell %d ranks: %d transfers, want %d", c.Ranks, c.Transfers, want)
		}
	}
	var buf bytes.Buffer
	if err := st.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E20", "aggregate payload rate", "p99 per-transfer completion", "shard queues live", "pool: "} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

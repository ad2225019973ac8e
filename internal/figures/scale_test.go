package figures

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestScaleStudy runs E20 at 64 ranks and at the acceptance cell (256
// ranks × 4 jobs × 4 in flight → ≥1000 concurrent typed transfers
// across 4 communicators) and checks the curves and the attribution
// render.
func TestScaleStudy(t *testing.T) {
	st := study(t, "scale")
	st.Points = []float64{64, 256}
	r := run(t, st, nil, harness.Options{})
	agg, p99 := r.Series(Curve{Name: "aggregate"}), r.Series(Curve{Name: "p99"})
	if agg.Len() != 2 || p99.Len() != 2 {
		t.Fatalf("curve lengths %d/%d, want 2", agg.Len(), p99.Len())
	}
	if c := st.Claims[0]; !c.Holds(c.Value(r)) {
		t.Errorf("peak in flight %g, acceptance wants ≥1000", c.Value(r))
	}
	for i, ranks := range agg.X {
		if agg.Y[i] <= 0 || p99.Y[i] <= 0 {
			t.Errorf("cell %g ranks: degenerate throughput %g or tail %g", ranks, agg.Y[i], p99.Y[i])
		}
	}
	// Each cell's note: its shape, its transfer count and its matching
	// attribution.
	cells := regexp.MustCompile(`(?m)^ +(\d+) ranks × \d+ jobs × (\d+) in flight × (\d+) rounds\n +(\d+) transfers .*\n +matching: \d+ shard queues live, (\d+) fast-path takes`).
		FindAllStringSubmatch(r.notes[""], -1)
	if len(cells) != 2 {
		t.Fatalf("note has %d cells, want 2:\n%s", len(cells), r.notes[""])
	}
	for _, c := range cells {
		n := make([]int, 5)
		for i := range n {
			n[i], _ = strconv.Atoi(c[i+1])
		}
		if want := n[0] * n[1] * n[2]; n[3] != want {
			t.Errorf("cell %d ranks: %d transfers, want %d", n[0], n[3], want)
		}
		if n[4] == 0 {
			t.Errorf("cell %d ranks: no fast-path matching attribution", n[0])
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"E20", "aggregate payload rate", "p99 per-transfer completion", "shard queues live", "pool: "} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

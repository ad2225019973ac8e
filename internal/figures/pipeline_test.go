package figures

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// pipeCache measures the study once: it runs real protocol worlds per
// cell, so the shape assertions share one run.
var pipeCache *Result

func pipelineStudyFor(t *testing.T) *Result {
	t.Helper()
	if pipeCache != nil {
		return pipeCache
	}
	st := study(t, "pipeline")
	st.Points = []float64{256 << 10, 512 << 10}
	st.Sizes = fixed(256<<10, 2<<20)
	pipeCache = run(t, st, nil, harness.Options{})
	return pipeCache
}

// planCounter reads one ops/bytes pair of a note line's plan counters.
func planCounter(t *testing.T, line, name string) (ops, bytes int64) {
	t.Helper()
	m := regexp.MustCompile(` ` + name + `=(\d+)/(\d+)B`).FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("no %s counter in %q", name, line)
	}
	ops, _ = strconv.ParseInt(m[1], 10, 64)
	bytes, _ = strconv.ParseInt(m[2], 10, 64)
	return ops, bytes
}

// TestPipelineStudyShape pins E16's headline relations: the pipelined
// path beats the serial chunk loop on every cell, never beats the
// fused upper bound, and the acceptance floor — ≥1.3x on every-other
// doubles at the rendezvous size — holds.
func TestPipelineStudyShape(t *testing.T) {
	r := pipelineStudyFor(t)
	for _, g := range pipelineGeometries {
		serial := r.Series(Curve{Name: "serial", Variant: g.name})
		piped := r.Series(Curve{Name: "pipelined", Variant: g.name})
		fused := r.Series(Curve{Name: "fused", Variant: g.name})
		if serial.Len() != len(r.Points) {
			t.Fatalf("%s: %d cells, want %d", g.name, serial.Len(), len(r.Points))
		}
		for i, chunk := range serial.X {
			if piped.Y[i] <= serial.Y[i] {
				t.Errorf("%s chunk %g: pipelined %.2f GB/s not above serial %.2f (overlap not positive)",
					g.name, chunk, piped.Y[i], serial.Y[i])
			}
			if piped.Y[i] > fused.Y[i]*1.02 {
				t.Errorf("%s chunk %g: pipelined %.2f GB/s above the fused bound %.2f",
					g.name, chunk, piped.Y[i], fused.Y[i])
			}
		}
	}
	if sp := r.at(per("everyOther", "pipelined", "serial"), 512<<10); sp < 1.3 {
		t.Errorf("everyOther pipelined speedup %.2fx, want >= 1.3x", sp)
	}
}

// TestPipelineStudyAttribution pins that every pipelined cell carries
// its chunk attribution: the whole payload through PipelinedOps, and
// no cursor fallback.
func TestPipelineStudyAttribution(t *testing.T) {
	r := pipelineStudyFor(t)
	for _, g := range pipelineGeometries {
		lines := strings.Split(strings.TrimSpace(r.notes[g.name]), "\n")
		if len(lines) != len(r.Points) {
			t.Fatalf("%s: %d note lines, want %d", g.name, len(lines), len(r.Points))
		}
		for i, l := range lines {
			chunk := int64(r.Points[i])
			ops, bytes := planCounter(t, l, "pipelined")
			if bytes != r.Bytes {
				t.Errorf("%s chunk %d: pipelined bytes %d, want %d", g.name, chunk, bytes, r.Bytes)
			}
			if want := (r.Bytes + chunk - 1) / chunk; ops != want {
				t.Errorf("%s chunk %d: pipelined chunks %d, want %d", g.name, chunk, ops, want)
			}
			if ops, _ := planCounter(t, l, "cursor"); ops != 0 {
				t.Errorf("%s chunk %d: %d cursor fallbacks on the pipelined path", g.name, chunk, ops)
			}
		}
	}
	for _, l := range strings.Split(strings.TrimSpace(r.notes["bcast"]), "\n") {
		if ops, bytes := planCounter(t, l, "pipelined"); ops == 0 || bytes == 0 {
			t.Errorf("bcast: no pipelined attribution: %s", l)
		}
	}
}

// TestPipelineStudyBcast pins the collective note: the pipelined
// scatter+allgather must beat the binomial tree at 8 ranks on every
// swept size.
func TestPipelineStudyBcast(t *testing.T) {
	r := pipelineStudyFor(t)
	tree, piped := r.Series(Curve{Name: "tree", Variant: "bcast"}), r.Series(Curve{Name: "pipelined", Variant: "bcast"})
	if tree.Len() == 0 {
		t.Fatal("no bcast sizes")
	}
	for i, n := range tree.X {
		if piped.Y[i] >= tree.Y[i] {
			t.Errorf("bcast %g B: pipelined %.3gs not below tree %.3gs", n, piped.Y[i], tree.Y[i])
		}
	}
}

func TestPipelineStudyRender(t *testing.T) {
	r := pipelineStudyFor(t)
	var out bytes.Buffer
	if err := r.Render(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"E16", "pipelined", "serial", "fused", "overlap", "scatter+allgather"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestTreeBcastIsBcastTypesTree guards E16's claim that its "binomial
// tree" arm, written out in typed point-to-point legs, is the schedule
// BcastType itself runs at or under CollectiveTreeLimit: at 8 ranks on
// every paper profile, both give the same virtual time at 4 KiB, at
// half the limit and at the limit.
func TestTreeBcastIsBcastTypesTree(t *testing.T) {
	for _, name := range []string{"skx-impi", "skx-mvapich", "ls5-cray", "knl-impi"} {
		prof, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		limit := prof.CollectiveTreeLimit()
		for _, n := range []int64{4 << 10, limit / 2, limit} {
			ty, err := vectorFor(n, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			if ty.Size() > limit {
				t.Fatalf("%s: %d-byte vector overshoots the %d-byte tree limit", name, ty.Size(), limit)
			}
			typed, err := bcastTime(name, 8, ty, func(c *mpi.Comm, blk buf.Block) error { return c.BcastType(blk, 1, ty, 0) })
			if err != nil {
				t.Fatal(err)
			}
			tree, err := bcastTime(name, 8, ty, func(c *mpi.Comm, blk buf.Block) error { return treeBcast(c, blk, ty) })
			if err != nil {
				t.Fatal(err)
			}
			if typed != tree {
				t.Errorf("%s, %d B: BcastType %.9g s, treeBcast %.9g s", name, ty.Size(), typed, tree)
			}
		}
	}
}

package figures

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/buf"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

// pipeCache builds the study once: it runs real protocol worlds per
// cell, so the shape assertions share one build.
var pipeCache *PipelineStudy

func pipelineStudyFor(t *testing.T) *PipelineStudy {
	t.Helper()
	if pipeCache != nil {
		return pipeCache
	}
	st, err := BuildPipelineStudy("skx-impi",
		[]int64{256 << 10, 512 << 10},
		[]int64{256 << 10, 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	pipeCache = st
	return st
}

// TestPipelineStudyShape pins E16's headline relations: the pipelined
// path beats the serial chunk loop on every cell, never beats the
// fused upper bound, and the acceptance floor — ≥1.3x on every-other
// doubles at the rendezvous size — holds.
func TestPipelineStudyShape(t *testing.T) {
	st := pipelineStudyFor(t)
	if len(st.Panels) == 0 {
		t.Fatal("no panels")
	}
	for _, p := range st.Panels {
		for i := range p.Chunks {
			if p.Pipelined.Y[i] <= p.Serial.Y[i] {
				t.Errorf("%s chunk %d: pipelined %.2f GB/s not above serial %.2f",
					p.Layout, p.Chunks[i], p.Pipelined.Y[i], p.Serial.Y[i])
			}
			if p.Pipelined.Y[i] > p.Fused.Y[i]*1.02 {
				t.Errorf("%s chunk %d: pipelined %.2f GB/s above the fused bound %.2f",
					p.Layout, p.Chunks[i], p.Pipelined.Y[i], p.Fused.Y[i])
			}
			if p.Overlap[i] <= 0 {
				t.Errorf("%s chunk %d: overlap attribution %.3f not positive", p.Layout, p.Chunks[i], p.Overlap[i])
			}
		}
	}
	if sp := st.PipelinedSpeedupAt("everyOther", 512<<10); sp < 1.3 {
		t.Errorf("everyOther pipelined speedup %.2fx, want >= 1.3x", sp)
	}
}

// TestPipelineStudyAttribution pins that every pipelined cell carries
// its chunk attribution: the whole payload through PipelinedOps, and
// no cursor fallback.
func TestPipelineStudyAttribution(t *testing.T) {
	st := pipelineStudyFor(t)
	for _, p := range st.Panels {
		for i, d := range p.Stats {
			if d.PipelinedBytes != st.Bytes {
				t.Errorf("%s chunk %d: pipelined bytes %d, want %d", p.Layout, p.Chunks[i], d.PipelinedBytes, st.Bytes)
			}
			want := (st.Bytes + p.Chunks[i] - 1) / p.Chunks[i]
			if d.PipelinedOps != want {
				t.Errorf("%s chunk %d: pipelined chunks %d, want %d", p.Layout, p.Chunks[i], d.PipelinedOps, want)
			}
			if d.CursorOps != 0 {
				t.Errorf("%s chunk %d: %d cursor fallbacks on the pipelined path", p.Layout, p.Chunks[i], d.CursorOps)
			}
		}
	}
	for i, d := range st.Bcast.Stats {
		if d.PipelinedOps == 0 || d.PipelinedBytes == 0 {
			t.Errorf("bcast size %d: no pipelined attribution (%v)", st.Bcast.Sizes[i], d)
		}
	}
}

// TestPipelineStudyBcast pins the collective panel: the pipelined
// scatter+allgather must beat the binomial tree at 8 ranks on every
// swept size.
func TestPipelineStudyBcast(t *testing.T) {
	st := pipelineStudyFor(t)
	b := st.Bcast
	if len(b.Sizes) == 0 {
		t.Fatal("no bcast sizes")
	}
	for i, n := range b.Sizes {
		if b.Pipelined.Y[i] >= b.Tree.Y[i] {
			t.Errorf("bcast %d B: pipelined %.3gs not below tree %.3gs", n, b.Pipelined.Y[i], b.Tree.Y[i])
		}
	}
}

func TestPipelineStudyRender(t *testing.T) {
	st := pipelineStudyFor(t)
	var out bytes.Buffer
	if err := st.Render(&out); err != nil {
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

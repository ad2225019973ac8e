package datatype

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
)

// pipelineLayouts builds the committed layouts the pipeline
// differentials sweep: the canonical every-other vector, a blocked
// stride, an irregular indexed table, and a gapped layout over a
// resized (padded-extent) base — the dense-base-assumption class.
func pipelineLayouts(t testing.TB) map[string]*Type {
	t.Helper()
	mk := func(ty *Type, err error) *Type {
		if err != nil {
			t.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
		return ty
	}
	rz := mk(Resized(Float64, 0, 24))
	return map[string]*Type{
		"everyOther": mk(Vector(4096, 1, 2, Float64)),
		"blocked16":  mk(Vector(256, 16, 24, Float64)),
		"indexed":    mk(Indexed([]int{3, 1, 5, 2}, []int{0, 7, 11, 29}, Float64)),
		"resized":    mk(Vector(512, 2, 3, rz)),
	}
}

// TestChunkPipelineMatchesPack pins the pipeline's stream byte-for-byte
// against the whole-message compiled pack across layouts, chunk sizes
// and depths (which the iterator ignores), and checks the chunk
// attribution.
func TestChunkPipelineMatchesPack(t *testing.T) {
	for name, ty := range pipelineLayouts(t) {
		for _, count := range []int{1, 3} {
			want := make([]byte, ty.PackSize(count))
			src := buf.Alloc(userBufLen(ty, count))
			src.FillPattern(0x5C)
			if _, err := ty.Pack(src, count, buf.FromBytes(want)); err != nil {
				t.Fatal(err)
			}
			plan, err := ty.CompilePlan(count)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int64{64, 1 << 10, 1 << 20} {
				for _, depth := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("%s/count%d/chunk%d/depth%d", name, count, chunk, depth), func(t *testing.T) {
						before := PlanStatsSnapshot()
						cp, err := NewChunkPipeline(plan, src, 0, plan.Bytes(), chunk, depth, 1)
						if err != nil {
							t.Fatal(err)
						}
						defer cp.Close()
						got := make([]byte, 0, len(want))
						chunks := 0
						for {
							ch, ok := cp.Next()
							if !ok {
								break
							}
							if ch.Lo != int64(len(got)) {
								t.Fatalf("chunk starts at %d, want %d (in-order delivery)", ch.Lo, len(got))
							}
							got = append(got, ch.Data.Bytes()...)
							cp.Recycle(ch)
							chunks++
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("pipelined stream differs from whole-message pack (%d vs %d bytes)", len(got), len(want))
						}
						if want := (plan.Bytes() + chunk - 1) / chunk; int64(chunks) != want {
							t.Fatalf("yielded %d chunks, want %d", chunks, want)
						}
						d := PlanStatsSnapshot().Sub(before)
						if d.PipelinedOps != int64(chunks) || d.PipelinedBytes != plan.Bytes() {
							t.Fatalf("pipelined attribution %d/%dB, want %d/%dB", d.PipelinedOps, d.PipelinedBytes, chunks, plan.Bytes())
						}
					})
				}
			}
		}
	}
}

// TestChunkPipelineRange pins mid-stream ranges against PackRange.
func TestChunkPipelineRange(t *testing.T) {
	ty := pipelineLayouts(t)["indexed"]
	const count = 5
	plan, err := ty.CompilePlan(count)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, count))
	src.FillPattern(0x33)
	total := plan.Bytes()
	for _, r := range [][2]int64{{0, total}, {1, total - 1}, {total / 3, 2 * total / 3}, {7, 7}} {
		lo, hi := r[0], r[1]
		want := buf.Alloc(int(hi - lo))
		if err := plan.PackRange(src, want, lo, hi); err != nil {
			t.Fatal(err)
		}
		cp, err := NewChunkPipeline(plan, src, lo, hi, 13, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 0, hi-lo)
		for {
			ch, ok := cp.Next()
			if !ok {
				break
			}
			got = append(got, ch.Data.Bytes()...)
			cp.Recycle(ch)
		}
		cp.Close()
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("range [%d,%d): pipelined stream differs from PackRange", lo, hi)
		}
	}
}

// TestChunkPipelineOneSlot pins the iterator's footprint: whatever
// depth it is given, a pipeline draws one pooled slot from its shard,
// packs every chunk into it and returns it at Close — full drains and
// early exits alike — and a second Close returns nothing more.
func TestChunkPipelineOneSlot(t *testing.T) {
	ty := pipelineLayouts(t)["everyOther"]
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, 1))
	for _, drain := range []int{-1, 0, 1} { // full drain, none, one chunk
		before := buf.PoolStatsSnapshot()
		cp, err := NewChunkPipeline(plan, src, 0, plan.Bytes(), 512, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		taken := 0
		for drain < 0 || taken < drain {
			ch, ok := cp.Next()
			if !ok {
				break
			}
			cp.Recycle(ch)
			taken++
		}
		if d := buf.PoolStatsSnapshot().Sub(before); d.Puts != 0 {
			t.Fatalf("drain=%d: %d slots returned before Close", drain, d.Puts)
		}
		cp.Close()
		cp.Close()
		if _, ok := cp.Next(); ok {
			t.Fatalf("drain=%d: closed pipeline yielded a chunk", drain)
		}
		d := buf.PoolStatsSnapshot().Sub(before)
		if d.Gets != 1 || d.Puts != 1 {
			t.Fatalf("drain=%d: drew %d pooled slots and returned %d, want one of each", drain, d.Gets, d.Puts)
		}
		if d.Shards[2].Gets != 1 || d.Shards[2].Puts != 1 {
			t.Fatalf("drain=%d: slot not attributed to shard 2: %+v", drain, d.Shards[2])
		}
	}
}

// TestChunkPipelineVirtual pins that virtual users move no bytes and
// draw no pooled storage, while still attributing the chunks.
func TestChunkPipelineVirtual(t *testing.T) {
	ty := pipelineLayouts(t)["everyOther"]
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Virtual(userBufLen(ty, 1))
	poolBefore := buf.PoolStatsSnapshot()
	before := PlanStatsSnapshot()
	cp, err := NewChunkPipeline(plan, src, 0, plan.Bytes(), 1<<10, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(0)
	for {
		ch, ok := cp.Next()
		if !ok {
			break
		}
		if !ch.Data.IsVirtual() {
			t.Fatal("virtual pipeline yielded a real slot")
		}
		n += ch.Hi - ch.Lo
		cp.Recycle(ch)
	}
	cp.Close()
	if n != plan.Bytes() {
		t.Fatalf("virtual pipeline yielded %d bytes, want %d", n, plan.Bytes())
	}
	if d := buf.PoolStatsSnapshot().Sub(poolBefore); d.Gets != 0 {
		t.Fatalf("virtual pipeline drew %d pooled slots", d.Gets)
	}
	if d := PlanStatsSnapshot().Sub(before); d.PipelinedBytes != plan.Bytes() {
		t.Fatalf("virtual pipeline attributed %d bytes, want %d", d.PipelinedBytes, plan.Bytes())
	}
}

// TestChunkPipelineArgErrors pins the construction validation.
func TestChunkPipelineArgErrors(t *testing.T) {
	ty := pipelineLayouts(t)["everyOther"]
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, 1))
	if _, err := NewChunkPipeline(plan, src, 0, plan.Bytes(), 0, 2, 0); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := NewChunkPipeline(plan, src, -1, plan.Bytes(), 64, 2, 0); err == nil {
		t.Error("negative lo accepted")
	}
	if _, err := NewChunkPipeline(plan, src, 0, plan.Bytes()+1, 64, 2, 0); err == nil {
		t.Error("hi past stream accepted")
	}
	short := buf.Alloc(8)
	if _, err := NewChunkPipeline(plan, short, 0, plan.Bytes(), 64, 2, 0); err == nil {
		t.Error("short user buffer accepted")
	}
}

package datatype

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buf"
)

// This file tests the plan cache (steady-state amortisation, identity,
// concurrency) and the compiled-chunked streaming tier against the
// interpreting-cursor oracle.

// TestPlanCacheIdentityAndStats pins the cache contract: the first
// CompilePlan for a count is a miss that binds the plan, every later
// one is a hit returning the same *Plan, and distinct counts get
// distinct plans.
func TestPlanCacheIdentityAndStats(t *testing.T) {
	ty := mustType(Vector(64, 1, 2, Float64))
	before := PlanStatsSnapshot()
	p1, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("repeated CompilePlan returned distinct plans")
	}
	p3, err := ty.CompilePlan(3)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("distinct counts share a plan")
	}
	if p3.Bytes() != 3*ty.Size() {
		t.Fatalf("count-3 plan bytes = %d", p3.Bytes())
	}
	d := PlanStatsSnapshot().Sub(before)
	if d.PlanMisses != 2 {
		t.Fatalf("misses = %d, want 2 (two counts): %v", d.PlanMisses, d)
	}
	if d.PlanHits != 1 {
		t.Fatalf("hits = %d, want 1: %v", d.PlanHits, d)
	}
	if d.Compiled != 0 {
		t.Fatalf("CompilePlan recompiled the program committed at Commit: %v", d)
	}
}

// TestPlanCacheSteadyStateZeroCost is the acceptance pin: after the
// first call, whole-message packing through Type.Pack compiles
// nothing, misses nothing, and allocates nothing per call.
func TestPlanCacheSteadyStateZeroCost(t *testing.T) {
	ty := mustType(Vector(1024, 1, 2, Float64))
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(7)
	dst := buf.Alloc(int(ty.Size()))
	if _, err := ty.Pack(src, 1, dst); err != nil { // prime
		t.Fatal(err)
	}

	before := PlanStatsSnapshot()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ty.Pack(src, 1, dst); err != nil {
			t.Fatal(err)
		}
	})
	d := PlanStatsSnapshot().Sub(before)
	if allocs != 0 {
		t.Errorf("steady-state Pack allocates %.1f objects per call, want 0", allocs)
	}
	if d.Compiled != 0 || d.PlanMisses != 0 {
		t.Errorf("steady-state Pack still compiling: %v", d)
	}
	if d.PlanHits == 0 {
		t.Errorf("steady-state Pack not hitting the plan cache: %v", d)
	}
}

// TestPlanCacheConcurrent hammers one shared type's plan cache from
// many goroutines mixing counts, lookups and real packs; run under
// -race (CI does) it pins the locking discipline, and afterwards the
// cache must have settled on one plan per count.
func TestPlanCacheConcurrent(t *testing.T) {
	ty := mustType(Vector(128, 1, 2, Float64))
	const (
		workers = 16
		iters   = 300
		counts  = 4
	)
	src := buf.Alloc(userBufLen(ty, counts))
	src.FillPattern(9)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < iters; i++ {
				count := rng.Intn(counts) + 1
				plan, err := ty.CompilePlan(count)
				if err != nil {
					t.Error(err)
					return
				}
				if plan.Bytes() != int64(count)*ty.Size() {
					t.Errorf("plan for count %d reports %d bytes", count, plan.Bytes())
					return
				}
				if i%8 == 0 {
					dst := buf.Alloc(int(plan.Bytes()))
					if _, err := plan.Pack(src, dst); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for count := 1; count <= counts; count++ {
		a, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("count %d did not settle on one cached plan", count)
		}
	}
}

// TestPlanCacheBounded pins the cap: a count sweep far past
// maxCachedPlans still works and the map stops growing.
func TestPlanCacheBounded(t *testing.T) {
	ty := mustType(Vector(4, 1, 2, Float64))
	for count := 1; count <= maxCachedPlans+50; count++ {
		if _, err := ty.CompilePlan(count); err != nil {
			t.Fatal(err)
		}
	}
	ty.plans.mu.RLock()
	n := len(ty.plans.byCount)
	ty.plans.mu.RUnlock()
	if n > maxCachedPlans {
		t.Fatalf("cache grew to %d entries, cap is %d", n, maxCachedPlans)
	}
}

// TestChunkedCompiledDifferential is the tier-2 property test: on
// randomized (type, count) draws, PackRange/UnpackRange over
// randomized chunk splits — which run on the compiled kernels —
// produce output byte-identical to the raw interpreting cursor.
func TestChunkedCompiledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCAC4E))
	for iter := 0; iter < 300; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		bufLen := userBufLen(ty, count)
		src := buf.Alloc(bufLen)
		src.FillPattern(byte(iter * 5))
		want := cursorPack(t, ty, src, count, rng)

		// Chunked compiled pack: random split sizes.
		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatal(err)
		}
		before := PlanStatsSnapshot()
		var got []byte
		for lo := int64(0); lo < plan.Bytes(); {
			hi := min(lo+int64(rng.Intn(48)+1), plan.Bytes())
			piece := buf.Alloc(int(hi - lo))
			if err := plan.PackRange(src, piece, lo, hi); err != nil {
				t.Fatal(err)
			}
			got = append(got, piece.Bytes()...)
			lo = hi
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d (%v, kernel %v, count %d): compiled-chunked stream differs from cursor",
				iter, ty, plan.Kernel(), count)
		}
		if len(want) > 48 {
			// The stream was genuinely chunked: tier 2 must have fired.
			d := PlanStatsSnapshot().Sub(before)
			if d.ChunkOps == 0 {
				t.Fatalf("iter %d (%v): chunked stream did not use the compiled tier: %v", iter, ty, d)
			}
		}

		// Chunked compiled unpack of the same stream.
		streamDst := buf.Alloc(bufLen)
		for lo := int64(0); lo < plan.Bytes(); {
			hi := min(lo+int64(rng.Intn(48)+1), plan.Bytes())
			if err := plan.UnpackRange(buf.FromBytes(want[lo:hi]), streamDst, lo, hi); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		cursorDst := buf.Alloc(bufLen)
		cursorUnpack(t, ty, cursorDst, count, want, rng)
		if !bytes.Equal(streamDst.Bytes(), cursorDst.Bytes()) {
			t.Fatalf("iter %d (%v, count %d): compiled-chunked unpack differs from cursor", iter, ty, count)
		}
	}
}

// TestChunkedCompiledLargeChunkParallel drives a mid-stream chunk past
// ParallelPackThreshold, big enough to engage the parallel splitter,
// and checks it against the cursor.
func TestChunkedCompiledLargeChunkParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB16))
	ty := mustType(Vector(600_000, 1, 2, Float64)) // 4.8 MB payload
	src := buf.Alloc(userBufLen(ty, 1))
	src.FillPattern(0x42)
	want := cursorPack(t, ty, src, 1, rng)

	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	// A small leading chunk forces mid-stream resume, then one big
	// chunk over the threshold.
	head := buf.Alloc(1000)
	if err := plan.PackRange(src, head, 0, 1000); err != nil {
		t.Fatal(err)
	}
	rest := buf.Alloc(int(plan.Bytes() - 1000))
	before := PlanStatsSnapshot()
	if err := plan.PackRange(src, rest, 1000, plan.Bytes()); err != nil {
		t.Fatal(err)
	}
	d := PlanStatsSnapshot().Sub(before)
	got := append(append([]byte(nil), head.Bytes()...), rest.Bytes()...)
	if !bytes.Equal(got, want) {
		t.Fatal("parallel mid-stream chunk differs from cursor")
	}
	if d.ChunkOps == 0 {
		t.Fatalf("large chunk not attributed to the chunk tier: %v", d)
	}
	if parallelWorkersFor(int64(rest.Len())) > 1 && d.ParallelOps == 0 {
		t.Fatalf("large chunk did not engage the parallel splitter: %v", d)
	}
}

package memsim

import (
	"math"
	"testing"

	"repro/internal/buf"
	"repro/internal/layout"
	"repro/internal/oracle"
)

func testHierarchy() *Hierarchy {
	return &Hierarchy{
		LineSize:         64,
		L1:               32 << 10,
		L2:               1 << 20,
		LLC:              32 << 20,
		CopyBW:           10e9,
		StreamBW:         12e9,
		CacheBW:          40e9,
		MissLatency:      90e-9,
		PrefetchMinBlock: 256,
		PrefetchStreams:  16,
		SegmentOverhead:  2e-9,
	}
}

func TestValidate(t *testing.T) {
	h := testHierarchy()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *h
	bad.CopyBW = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth validated")
	}
}

func TestTrafficContig(t *testing.T) {
	h := testHierarchy()
	st := layout.Dense(1000)
	if got := h.Traffic(st); got != 1024 {
		t.Fatalf("traffic = %d, want 1024 (line-rounded)", got)
	}
}

func TestTrafficStrideWithinLine(t *testing.T) {
	h := testHierarchy()
	// Every other float64: gaps of 8 bytes, well under a line, so the
	// whole extent is touched — the 2× amplification behind the
	// paper's factor-3 slowdown.
	st := oracle.Stats(layout.Jittered(1000, 8, 16, 0))
	want := roundUp(st.Extent, 64)
	if got := h.Traffic(st); got != want {
		t.Fatalf("traffic = %d, want %d", got, want)
	}
	if got := h.Traffic(st); got < 2*st.Bytes-128 {
		t.Fatalf("stride-2 traffic %d should be ≈2× payload %d", got, st.Bytes)
	}
}

func TestTrafficLargeGapsSkipLines(t *testing.T) {
	h := testHierarchy()
	// 64-byte blocks separated by 4 KB: only the blocks' lines move.
	st := oracle.Stats(layout.Jittered(100, 64, 4096, 0))
	if got := h.Traffic(st); got != 100*64 {
		t.Fatalf("traffic = %d, want %d", got, 100*64)
	}
}

func TestGatherCostColdVsWarm(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	src := buf.Alloc(1 << 20)
	dst := buf.Alloc(1 << 19)
	st := oracle.Stats(layout.Jittered(1<<16, 8, 16, 0))
	cold := s.GatherCost(src.Region(), dst.Region(), st, Kernel{})
	warm := s.GatherCost(src.Region(), dst.Region(), st, Kernel{})
	if warm >= cold {
		t.Fatalf("warm gather (%g) not faster than cold (%g)", warm, cold)
	}
}

func TestFlushResetsWarmth(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	src := buf.Alloc(1 << 20)
	dst := buf.Alloc(1 << 19)
	st := oracle.Stats(layout.Jittered(1<<16, 8, 16, 0))
	cold := s.GatherCost(src.Region(), dst.Region(), st, Kernel{})
	s.Flush()
	again := s.GatherCost(src.Region(), dst.Region(), st, Kernel{})
	if again != cold {
		t.Fatalf("post-flush cost %g differs from cold cost %g", again, cold)
	}
}

// TestFlushCycleAllocatesNothing is the steady state of a ping-pong
// rank: flush, then price a gather and a scatter, over and over. The
// flush empties the residency map and the LRU order in place, and an
// eviction shifts the order within its array, so once the first cycle
// has sized both, a cycle allocates nothing.
func TestFlushCycleAllocatesNothing(t *testing.T) {
	h := testHierarchy()
	h.LLC = 1 << 20 // three 512 KiB regions: the third touch evicts
	s := NewState(h)
	a, b, c := buf.Alloc(1), buf.Alloc(1), buf.Alloc(1)
	st := layout.Dense(512 << 10)
	cycle := func() {
		s.Flush()
		s.GatherCost(a.Region(), b.Region(), st, Kernel{})
		s.ScatterCost(b.Region(), c.Region(), st, Kernel{})
	}
	cycle()
	// AllocsPerRun truncates its average, so each run is 100 cycles: a
	// regrowth every few cycles still counts.
	if n := testing.AllocsPerRun(10, func() {
		for range 100 {
			cycle()
		}
	}); n != 0 {
		t.Errorf("100 flush + gather + scatter cycles allocate %v times, want 0", n)
	}
	if r := s.residency(a.Region(), 512<<10); r != 0 {
		t.Errorf("a survived the cycle's eviction: residency %v", r)
	}
}

func TestResidencyEvictsLRU(t *testing.T) {
	h := testHierarchy()
	h.LLC = 1 << 20 // 1 MB cache
	s := NewState(h)
	a, b, c := buf.Alloc(1), buf.Alloc(1), buf.Alloc(1)
	s.touch(a.Region(), 512<<10)
	s.touch(b.Region(), 512<<10)
	if r := s.residency(a.Region(), 512<<10); r != 1 {
		t.Fatalf("a residency = %v", r)
	}
	s.touch(c.Region(), 512<<10) // evicts a (oldest)
	if r := s.residency(a.Region(), 512<<10); r != 0 {
		t.Fatalf("a not evicted: %v", r)
	}
	if r := s.residency(c.Region(), 512<<10); r != 1 {
		t.Fatalf("c residency = %v", r)
	}
}

func TestDisabledStateAlwaysCold(t *testing.T) {
	s := NewState(testHierarchy())
	s.SetDisabled(true)
	r := buf.Alloc(1)
	s.touch(r.Region(), 1<<20)
	if got := s.residency(r.Region(), 1<<20); got != 0 {
		t.Fatalf("disabled state has residency %v", got)
	}
}

func TestIrregularGatherCostsMore(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	s.SetDisabled(true) // isolate the prefetch effect from warmth
	src, dst := buf.Alloc(1), buf.Alloc(1)
	regular := oracle.Stats(layout.Jittered(10000, 8, 64, 0))
	jittered := oracle.Stats(layout.Jittered(10000, 8, 64, 0.9))
	cr := s.GatherCost(src.Region(), dst.Region(), regular, Kernel{})
	cj := s.GatherCost(src.Region(), dst.Region(), jittered, Kernel{})
	if cj <= cr {
		t.Fatalf("irregular gather (%g) not slower than regular (%g)", cj, cr)
	}
}

func TestLargerBlocksCheaperPerByte(t *testing.T) {
	h := testHierarchy()
	s := NewState(h)
	s.SetDisabled(true)
	src, dst := buf.Alloc(1), buf.Alloc(1)
	payload := int64(1 << 20)
	small := oracle.Stats(layout.Jittered(payload/8, 8, 16, 0))
	big := oracle.Stats(layout.Jittered(payload/512, 512, 1024, 0))
	cSmall := s.GatherCost(src.Region(), dst.Region(), small, Kernel{})
	cBig := s.GatherCost(src.Region(), dst.Region(), big, Kernel{})
	if cBig >= cSmall {
		t.Fatalf("big-block gather (%g) not cheaper than small-block (%g)", cBig, cSmall)
	}
}

func TestStreamCost(t *testing.T) {
	s := NewState(testHierarchy())
	r := buf.Alloc(1)
	cold := s.StreamCost(r.Region(), 12e6)
	if cold < 0.9e-3 || cold > 1.1e-3 {
		t.Fatalf("stream of 12 MB at 12 GB/s = %g, want ≈1 ms", cold)
	}
	warm := s.StreamCost(r.Region(), 12e6)
	if warm >= cold {
		t.Fatalf("warm stream (%g) not faster", warm)
	}
}

func TestScatterCost(t *testing.T) {
	s := NewState(testHierarchy())
	s.SetDisabled(true)
	src, dst := buf.Alloc(1), buf.Alloc(1)
	st := oracle.Stats(layout.Jittered(1000, 8, 16, 0))
	c := s.ScatterCost(src.Region(), dst.Region(), st, Kernel{})
	if c <= 0 {
		t.Fatalf("scatter cost = %g", c)
	}
	// Scatter reads contiguous, so it should cost no more than the
	// equivalent gather, which reads with stride amplification.
	g := s.GatherCost(src.Region(), dst.Region(), st, Kernel{})
	if c > g*1.5 {
		t.Fatalf("scatter %g unexpectedly dearer than gather %g", c, g)
	}
}

func TestZeroSizedOpsFree(t *testing.T) {
	s := NewState(testHierarchy())
	r := buf.Alloc(1)
	if s.StreamCost(r.Region(), 0) != 0 || s.CopyCost(r.Region(), r.Region(), 0) != 0 {
		t.Fatal("zero-byte op has nonzero cost")
	}
	if s.GatherCost(r.Region(), r.Region(), layout.Stats{}, Kernel{}) != 0 {
		t.Fatal("empty gather has nonzero cost")
	}
}

func TestFlushCostPositive(t *testing.T) {
	s := NewState(testHierarchy())
	if s.FlushCost() <= 0 {
		t.Fatal("flush cost must be positive")
	}
}

// TestPipelinedChunkCost pins the two-stage pipeline bound: the
// overlapped span sits between max(pack, consume) + one fill and the
// serial sum, degenerates to the serial sum for single chunks or a
// disabled ring, and is monotone in the chunk count.
func TestPipelinedChunkCost(t *testing.T) {
	const pack, wire = 1.0, 0.6
	serial := pack + wire
	if got := PipelinedChunkCost(pack, wire, 1, 2); got != serial {
		t.Errorf("single chunk = %g, want the serial sum %g", got, serial)
	}
	if got := PipelinedChunkCost(pack, wire, 8, 0); got != serial {
		t.Errorf("depth 0 = %g, want the serial sum %g", got, serial)
	}
	for _, chunks := range []int64{2, 8, 64} {
		got := PipelinedChunkCost(pack, wire, chunks, 2)
		if got >= serial {
			t.Errorf("%d chunks: %g not below serial %g", chunks, got, serial)
		}
		slow := pack
		if wire > slow {
			slow = wire
		}
		if got < slow {
			t.Errorf("%d chunks: %g below the slower stage %g", chunks, got, slow)
		}
	}
	// Finer chunking approaches the slower-stage bound.
	coarse := PipelinedChunkCost(pack, wire, 2, 2)
	fine := PipelinedChunkCost(pack, wire, 64, 2)
	if fine >= coarse {
		t.Errorf("finer chunking (%g) not below coarser (%g)", fine, coarse)
	}
}

// TestHierarchyChunkValidation pins the promoted chunk/depth fields'
// validation and defaults.
func TestHierarchyChunkValidation(t *testing.T) {
	h := Hierarchy{LineSize: 64, LLC: 1 << 20, CopyBW: 1e9, StreamBW: 1e9, CacheBW: 1e9}
	if err := h.Validate(); err != nil {
		t.Fatalf("zero chunk/depth must validate (defaults apply): %v", err)
	}
	if h.InternalChunkSize() != DefaultInternalChunk {
		t.Errorf("InternalChunkSize = %d, want default %d", h.InternalChunkSize(), DefaultInternalChunk)
	}
	if h.ChunkPipelineDepth() != DefaultPipelineDepth {
		t.Errorf("ChunkPipelineDepth = %d, want default %d", h.ChunkPipelineDepth(), DefaultPipelineDepth)
	}
	h.InternalChunk = -1
	if err := h.Validate(); err == nil {
		t.Error("negative InternalChunk accepted")
	}
	h.InternalChunk = 0
	h.PipelineDepth = -1
	if err := h.Validate(); err == nil {
		t.Error("negative PipelineDepth accepted")
	}
}

func TestParallelCompiledGatherCheaper(t *testing.T) {
	// The parallel-pack term: a many-small-segment layout priced for a
	// multi-worker compiled pack must undercut the serial compiled
	// pack, which in turn undercuts generic interpretation. Separate
	// states keep warmth effects out of the comparison.
	st := layout.Stats{Segments: 1 << 16, Bytes: 8 << 20, Extent: 16 << 20, AvgBlock: 8, AvgGap: 8, MinBlock: 8, MaxBlock: 8, Density: 0.5}
	src, dst := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	interp := NewState(testHierarchy()).GatherCost(src, dst, st, Kernel{})
	serial := NewState(testHierarchy()).GatherCost(src, dst, st, Kernel{Engine: Compiled})
	par := NewState(testHierarchy()).GatherCost(src, dst, st, Kernel{Engine: Compiled, Workers: 8})
	if !(par < serial && serial < interp) {
		t.Fatalf("cost ordering violated: parallel %g, serial compiled %g, interpreted %g", par, serial, interp)
	}
	// The bandwidth term saturates at ParallelBWScale, so doubling the
	// workers past saturation only shaves segment bookkeeping.
	par16 := NewState(testHierarchy()).GatherCost(src, dst, st, Kernel{Engine: Compiled, Workers: 16})
	if par16 > par {
		t.Fatalf("more workers cost more: %g > %g", par16, par)
	}
	if floor := float64(NewState(testHierarchy()).Hierarchy().Traffic(st)) / (testHierarchy().CopyBW * testHierarchy().parallelScale() * 1.01); par16 < floor {
		t.Fatalf("parallel cost %g beats the saturated-bandwidth floor %g", par16, floor)
	}
	// One worker must price exactly like the serial compiled pack.
	one := NewState(testHierarchy()).GatherCost(src, dst, st, Kernel{Engine: Compiled, Workers: 1})
	if one != serial {
		t.Fatalf("1-worker parallel cost %g != serial compiled %g", one, serial)
	}
}

func TestParallelCompiledScatterCheaper(t *testing.T) {
	st := layout.Stats{Segments: 1 << 16, Bytes: 8 << 20, Extent: 16 << 20, AvgBlock: 8, AvgGap: 8, MinBlock: 8, MaxBlock: 8, Density: 0.5}
	src, dst := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	serial := NewState(testHierarchy()).ScatterCost(src, dst, st, Kernel{Engine: Compiled})
	par := NewState(testHierarchy()).ScatterCost(src, dst, st, Kernel{Engine: Compiled, Workers: 8})
	if par >= serial {
		t.Fatalf("parallel scatter %g not under serial %g", par, serial)
	}
}

// TestKernelCostProperties sweeps the three kernel pricers over engine
// × workers × layout on cold caches: Workers 0 and 1 are the same
// price to the bit, cost never rises with Workers, the engine ladder is
// Normalized ≤ Compiled ≤ Interpreted at every worker count, and cost
// grows with the payload (same geometry, more runs) and with the
// segment count (same bytes and extent, shorter runs).
func TestKernelCostProperties(t *testing.T) {
	src, dst := buf.Alloc(1).Region(), buf.Alloc(1).Region()
	strided := func(count, block int64) layout.Stats {
		return oracle.Stats(layout.Jittered(count, block, 2*block, 0))
	}
	engines := []Engine{Normalized, Compiled, Interpreted} // cheapest first
	workers := []int{0, 1, 2, 3, 4, 8, 16, 64}
	type pricer struct {
		name      string
		oneEngine bool // the fused pass always runs Compiled
		cost      func(st layout.Stats, k Kernel) float64
	}
	pricers := []pricer{
		{"gather", false, func(st layout.Stats, k Kernel) float64 { return NewState(testHierarchy()).GatherCost(src, dst, st, k) }},
		{"scatter", false, func(st layout.Stats, k Kernel) float64 { return NewState(testHierarchy()).ScatterCost(src, dst, st, k) }},
		{"fused", true, func(st layout.Stats, k Kernel) float64 {
			return NewState(testHierarchy()).FusedCopyCost(src, dst, st, st, k.Workers)
		}},
	}
	for _, p := range pricers {
		for _, st := range []layout.Stats{strided(1<<16, 8), strided(1<<10, 512), oracle.Stats(layout.Jittered(1<<12, 8, 96, 0.5))} {
			for ei, e := range engines {
				if p.oneEngine && e != Compiled {
					continue
				}
				if zero, one := p.cost(st, Kernel{Engine: e}), p.cost(st, Kernel{Engine: e, Workers: 1}); zero != one {
					t.Errorf("%s engine %d: Workers 0 prices %g, Workers 1 %g", p.name, e, zero, one)
				}
				prev := math.Inf(1)
				for _, w := range workers {
					c := p.cost(st, Kernel{Engine: e, Workers: w})
					if c <= 0 || c > prev {
						t.Errorf("%s engine %d: cost %g at %d workers after %g with fewer", p.name, e, c, w, prev)
					}
					prev = c
					if ei > 0 && !p.oneEngine {
						if cheaper := p.cost(st, Kernel{Engine: engines[ei-1], Workers: w}); cheaper > c {
							t.Errorf("%s at %d workers: engine %d %g above engine %d %g", p.name, w, engines[ei-1], cheaper, e, c)
						}
					}
				}
			}
		}
		for _, k := range []Kernel{{}, {Engine: Compiled}, {Engine: Normalized, Workers: 4}} {
			if small, big := p.cost(strided(1<<10, 8), k), p.cost(strided(1<<14, 8), k); small >= big {
				t.Errorf("%s %+v: %g for 8 KiB not under %g for 128 KiB", p.name, k, small, big)
			}
			if few, many := p.cost(strided(1<<10, 128), k), p.cost(strided(1<<14, 8), k); few >= many {
				t.Errorf("%s %+v: %g for 1 Ki segments not under %g for 16 Ki segments of the same bytes", p.name, k, few, many)
			}
		}
	}
}

package datatype

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
)

func benchVector(b *testing.B, count, blocklen, stride int) (*Type, buf.Block, buf.Block) {
	b.Helper()
	ty, err := Vector(count, blocklen, stride, Float64)
	if err != nil {
		b.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		b.Fatal(err)
	}
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(1)
	dst := buf.Alloc(int(ty.Size()))
	return ty, src, dst
}

func BenchmarkPackEveryOther1MB(b *testing.B) {
	ty, src, dst := benchVector(b, 1<<17, 1, 2)
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ty.Pack(src, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackBlocked1MB(b *testing.B) {
	ty, src, dst := benchVector(b, 1<<11, 64, 128)
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ty.Pack(src, 1, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackEveryOther1MB(b *testing.B) {
	ty, src, dst := benchVector(b, 1<<17, 1, 2)
	if _, err := ty.Pack(src, 1, dst); err != nil {
		b.Fatal(err)
	}
	back := buf.Alloc(int(ty.Extent()))
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ty.Unpack(dst, 1, back); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChunkedPacker(b *testing.B) {
	ty, src, _ := benchVector(b, 1<<17, 1, 2)
	chunk := buf.Alloc(64 << 10)
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ty.NewPacker(src, 1)
		if err != nil {
			b.Fatal(err)
		}
		for p.Remaining() > 0 {
			if _, err := p.Pack(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchGeometries is the paper-style sweep for the engine comparison:
// the canonical every-other-element layout and a blocked layout, from
// cache-resident to DRAM-bound sizes.
var benchGeometries = []struct {
	name             string
	blocklen, stride int
	payloads         []int64 // packed bytes
}{
	{"everyOther", 1, 2, []int64{64 << 10, 1 << 20, 16 << 20}},
	{"blocked64", 64, 128, []int64{64 << 10, 1 << 20, 16 << 20}},
}

// BenchmarkPackEngines compares the three pack engines on the same
// (geometry, size) grid: the interpreting cursor, the compiled plan
// restricted to one goroutine, and the parallel plan. The recorded
// MB/s ratios are the repository's compiled-vs-interpreted speedup
// evidence (BENCH_*.json tracks them).
func BenchmarkPackEngines(b *testing.B) {
	for _, g := range benchGeometries {
		for _, payload := range g.payloads {
			count := int(payload) / (g.blocklen * 8)
			ty, src, dst := benchVector(b, count, g.blocklen, g.stride)
			name := fmt.Sprintf("%s/%s", g.name, sizeLabel(payload))
			b.Run("cursor/"+name, func(b *testing.B) {
				b.SetBytes(ty.Size())
				for i := 0; i < b.N; i++ {
					c := newCursor(ty, src, 1)
					if _, err := c.transfer(dst, packDirection); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("compiled/"+name, func(b *testing.B) {
				// Threshold above the payload: single-goroutine kernels.
				SetParallelPackThreshold(payload + 1)
				defer SetParallelPackThreshold(DefaultParallelPackThreshold)
				plan, err := ty.CompilePlan(1)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(ty.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Pack(src, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("parallel/"+name, func(b *testing.B) {
				SetParallelPackThreshold(1)
				defer SetParallelPackThreshold(DefaultParallelPackThreshold)
				plan, err := ty.CompilePlan(1)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Parallel() {
					// Too small for >1 worker (or single-core): this
					// cell would silently re-measure the serial kernel.
					b.Skipf("payload %d B cannot engage the parallel splitter", payload)
				}
				b.SetBytes(ty.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Pack(src, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("steadyState/"+name, func(b *testing.B) {
				// The full steady-state hot path: plan-cache lookup +
				// kernel, as Comm.PackCompiled runs it. Run with
				// -benchmem: zero CompilePlan calls, zero allocs/op.
				if _, err := ty.Pack(src, 1, dst); err != nil {
					b.Fatal(err)
				}
				before := PlanStatsSnapshot()
				b.ReportAllocs()
				b.SetBytes(ty.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ty.Pack(src, 1, dst); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if d := PlanStatsSnapshot().Sub(before); d.Compiled != 0 || d.PlanMisses != 0 {
					b.Fatalf("steady state compiled %d programs / missed %d lookups", d.Compiled, d.PlanMisses)
				}
			})
			b.Run("chunkedCursor/"+name, func(b *testing.B) {
				SetChunkedCompiled(false)
				defer SetChunkedCompiled(true)
				benchChunkedStream(b, ty, src)
			})
			b.Run("chunkedCompiled/"+name, func(b *testing.B) {
				benchChunkedStream(b, ty, src)
			})
			// The rendezvous typed→typed shapes: staged moves the
			// payload twice (pack into staging, unpack out of it, the
			// classic typed rendezvous), fused moves it once with no
			// staging buffer (the sendv engine). The fused/staged
			// MB/s ratio on everyOther is the repository's
			// fused-rendezvous speedup evidence (≥1.5x expected).
			b.Run("stagedPair/"+name, func(b *testing.B) {
				dst := buf.Alloc(int(ty.Extent()))
				staging := buf.Alloc(int(ty.Size()))
				plan, err := ty.CompilePlan(1)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(ty.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := plan.Pack(src, staging); err != nil {
						b.Fatal(err)
					}
					if _, err := plan.Unpack(staging, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("fusedPair/"+name, func(b *testing.B) {
				dst := buf.Alloc(int(ty.Extent()))
				plan, err := ty.CompilePlan(1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.SetBytes(ty.Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := FusedCopy(plan, plan, src, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// The fusedPair cells above pair a plan with itself (1:1 runs) and
	// run whichever of the serial kernel and the worker split the host's
	// GOMAXPROCS selects. These cells name both: the typed receive of
	// every-other doubles into blocks of four (8-byte runs into 32-byte
	// runs) at the parallel threshold, on one goroutine and cut across
	// two workers whatever the host — and the range checksum over either
	// layout, the other per-byte pass of a transfer under faults.
	const payload = 4 << 20
	everyOther, src, _ := benchVector(b, payload/8, 1, 2)
	block4, blockSrc, _ := benchVector(b, payload/32, 4, 8)
	srcPlan, dstPlan := benchPlan(b, everyOther), benchPlan(b, block4)
	for _, c := range []struct {
		name string
		w    int
	}{{"serial", 1}, {"split2", 2}} {
		b.Run("fusedPair/everyOther→block4/4MiB/"+c.name, func(b *testing.B) {
			dst := buf.Alloc(int(block4.Extent()))
			b.ReportAllocs()
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fusedExec(srcPlan, dstPlan, src, dst, payload, c.w, 0, nil)
			}
		})
	}
	for _, c := range []struct {
		name string
		plan *Plan
		user buf.Block
	}{{"everyOther", srcPlan, src}, {"block4", dstPlan, blockSrc}} {
		b.Run("checksumRange/"+c.name+"/4MiB", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(payload)
			for i := 0; i < b.N; i++ {
				var sum buf.Checksum
				c.plan.ChecksumRange(c.user, 0, payload, &sum)
				benchSink += sum.Sum64()
			}
		})
	}
	// The other run-length classes of the batch run kernel (every cell
	// above moves 8- or 512-byte runs through the stride program): 4-,
	// 8-, 16- and 32-byte runs at a stride of twice their length, and
	// the 2-D block form whose rows are whole copyRunGroups groups, on
	// one goroutine in both directions.
	for _, runLen := range []int{4, 8, 16, 32} {
		elem, bl := runLenElem(runLen)
		ty := mustType(Vector(payload/runLen, bl, 2*bl, elem))
		benchKernelCells(b, fmt.Sprintf("strideRuns/%dB/4MiB", runLen), ty, 1, KernelStride)
	}
	block2d, _, _ := benchNestedBlock(b, true, payload/(16*8), 16, 1)
	benchKernelCells(b, "block2d/8B/4MiB", block2d, 1, KernelBlock)
	// Count as the form's outermost level: 1000 instances of a 4-run
	// vector move as one batch of 1000 rows.
	benchKernelCells(b, "countFold/1000x4", mustType(Vector(4, 1, 2, Float64)), 1000, KernelStride)
}

// benchKernelCells adds the name/pack and name/unpack cells of count
// instances of a layout: the single-goroutine compiled plan in each
// direction, its result checked once against the interpreting cursor
// before the timed loop.
func benchKernelCells(b *testing.B, name string, ty *Type, count int, kernel PlanKernel) {
	b.Helper()
	plan, err := ty.CompilePlan(count)
	if err != nil {
		b.Fatal(err)
	}
	if plan.Kernel() != kernel {
		b.Fatalf("%s compiled to %v, want %v", name, plan.Kernel(), kernel)
	}
	src := buf.Alloc(userBufLen(ty, count))
	src.FillPattern(1)
	want := buf.Alloc(int(plan.Bytes()))
	c := newCursor(ty, src, count)
	if _, err := c.transfer(want, packDirection); err != nil {
		b.Fatal(err)
	}
	serial := func(b *testing.B, op func() error) {
		SetParallelPackThreshold(plan.Bytes() + 1)
		defer SetParallelPackThreshold(DefaultParallelPackThreshold)
		b.ReportAllocs()
		b.SetBytes(plan.Bytes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run(name+"/pack", func(b *testing.B) {
		dst := buf.Alloc(int(plan.Bytes()))
		pack := func() error { _, err := plan.Pack(src, dst); return err }
		if err := pack(); err != nil || !buf.Equal(dst, want) {
			b.Fatalf("packed stream differs from the cursor's (%v)", err)
		}
		serial(b, pack)
	})
	b.Run(name+"/unpack", func(b *testing.B) {
		// The source holds its pattern in the gaps too, so unpacking its
		// own packed stream over a copy with the runs zeroed restores it.
		dst := buf.Alloc(src.Len())
		buf.CopyAt(dst, 0, src, 0, src.Len())
		if _, err := plan.Unpack(buf.Alloc(int(plan.Bytes())), dst); err != nil || buf.Equal(dst, src) {
			b.Fatalf("zeroing the runs left the buffer unchanged (%v)", err)
		}
		unpack := func() error { _, err := plan.Unpack(want, dst); return err }
		if err := unpack(); err != nil || !buf.Equal(dst, src) {
			b.Fatalf("unpacked buffer differs from the source layout (%v)", err)
		}
		serial(b, unpack)
	})
}

// benchSink keeps a benchmarked result live.
var benchSink uint64

// benchPlan compiles the single-instance plan of a committed type.
func benchPlan(b *testing.B, ty *Type) *Plan {
	b.Helper()
	plan, err := ty.CompilePlan(1)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

// benchChunkedStream drains one message through a Packer in 64 KiB
// chunks — the internal-chunk streaming shape of rendezvous sends.
func benchChunkedStream(b *testing.B, ty *Type, src buf.Block) {
	b.Helper()
	chunk := buf.Alloc(64 << 10)
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ty.NewPacker(src, 1)
		if err != nil {
			b.Fatal(err)
		}
		for p.Remaining() > 0 {
			if _, err := p.Pack(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkUnpackEngines is the scatter-side mirror of
// BenchmarkPackEngines on the canonical geometry.
func BenchmarkUnpackEngines(b *testing.B) {
	const payload = 1 << 20
	ty, src, dst := benchVector(b, payload/8, 1, 2)
	if _, err := ty.Pack(src, 1, dst); err != nil {
		b.Fatal(err)
	}
	back := buf.Alloc(int(ty.Extent()))
	b.Run("cursor", func(b *testing.B) {
		b.SetBytes(ty.Size())
		for i := 0; i < b.N; i++ {
			c := newCursor(ty, back, 1)
			if _, err := c.transfer(dst, unpackDirection); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		SetParallelPackThreshold(payload + 1)
		defer SetParallelPackThreshold(DefaultParallelPackThreshold)
		plan, err := ty.CompilePlan(1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(ty.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Unpack(dst, back); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		SetParallelPackThreshold(1)
		defer SetParallelPackThreshold(DefaultParallelPackThreshold)
		plan, err := ty.CompilePlan(1)
		if err != nil {
			b.Fatal(err)
		}
		if !plan.Parallel() {
			b.Skipf("payload %d B cannot engage the parallel splitter", payload)
		}
		b.SetBytes(ty.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Unpack(dst, back); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGatherKernel compares the engines on an irregular
// (indexed-block) layout, where the compiled plan walks its flattened
// segment table.
func BenchmarkGatherKernel(b *testing.B) {
	displs := make([]int, 1<<15)
	pos := 0
	for i := range displs {
		displs[i] = pos
		pos += 2 + (i*7)%3
	}
	ty, err := IndexedBlock(2, displs, Float64)
	if err != nil {
		b.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		b.Fatal(err)
	}
	src := buf.Alloc(int(ty.r.last()))
	src.FillPattern(1)
	dst := buf.Alloc(int(ty.Size()))
	b.Run("cursor", func(b *testing.B) {
		b.SetBytes(ty.Size())
		for i := 0; i < b.N; i++ {
			c := newCursor(ty, src, 1)
			if _, err := c.transfer(dst, packDirection); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		plan, err := ty.CompilePlan(1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(ty.Size())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := plan.Pack(src, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}

// benchNestedBlock builds the 2-D canonical hvector-of-vector shape —
// rows × runs runs at a broken outer pitch, so the flattener emits an
// irregular table the normalizer collapses — compiled under the given
// normalization gate. The +16 pad keeps the outer stride off the inner
// continuation, which would stay on the stride kernel.
func benchNestedBlock(b *testing.B, on bool, rows, runs, bl int) (*Type, buf.Block, buf.Block) {
	b.Helper()
	var ty *Type
	withNormalize(on, func() {
		in, err := Vector(runs, bl, 2*bl, Float64)
		if err != nil {
			b.Fatal(err)
		}
		ty, err = Hvector(rows, 1, in.TrueExtent()+16, in)
		if err != nil {
			b.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			b.Fatal(err)
		}
	})
	src := buf.Alloc(int(ty.Extent()))
	src.FillPattern(1)
	dst := buf.Alloc(int(ty.Size()))
	return ty, src, dst
}

// benchPackSerial measures the single-goroutine compiled pack of ty —
// the kernel itself, with the parallel splitter held off.
func benchPackSerial(b *testing.B, ty *Type, src, dst buf.Block) {
	b.Helper()
	SetParallelPackThreshold(ty.Size() + 1)
	defer SetParallelPackThreshold(DefaultParallelPackThreshold)
	plan, err := ty.CompilePlan(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Pack(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNormalizedKernels compares the raw compiled programs against
// their canonicalised forms on the normalizer's layout families:
// every-other doubles (stride kernel either way — a parity cell), the
// 2-D block of 8-byte runs and the 2-D block of 64-byte runs (one
// copyRunGroups tile per plane against one copyRun per table segment).
// The smoke cell is the CI gate, and it gates only what is
// deterministic: the nested shape must still collapse to the block
// kernel and its raw twin stay on the gather walk, and the steady-state
// block pack must not allocate. The block/gather speed ratio is
// reported (min-of-reps, so it means something at -benchtime=1x), not
// asserted; cmd/bench records the kernels' rates.
func BenchmarkNormalizedKernels(b *testing.B) {
	const rows, runs = 4096, 16 // 512 KiB of 8-byte runs
	payload := int64(rows * runs * 8)
	b.Run("everyOther/canon", func(b *testing.B) {
		var ty *Type
		withNormalize(true, func() { ty, _, _ = benchVector(b, 1<<16, 1, 2) })
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(1)
		benchPackSerial(b, ty, src, buf.Alloc(int(ty.Size())))
	})
	b.Run("everyOther/raw", func(b *testing.B) {
		var ty *Type
		withNormalize(false, func() { ty, _, _ = benchVector(b, 1<<16, 1, 2) })
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(1)
		benchPackSerial(b, ty, src, buf.Alloc(int(ty.Size())))
	})
	b.Run("block2dRuns8B/canon", func(b *testing.B) {
		ty, src, dst := benchNestedBlock(b, true, rows, runs, 1)
		benchPackSerial(b, ty, src, dst)
	})
	b.Run("block2dRuns8B/rawGather", func(b *testing.B) {
		ty, src, dst := benchNestedBlock(b, false, rows, runs, 1)
		benchPackSerial(b, ty, src, dst)
	})
	b.Run("block2dRuns64B/canon", func(b *testing.B) {
		ty, src, dst := benchNestedBlock(b, true, 512, runs, 8)
		benchPackSerial(b, ty, src, dst)
	})
	b.Run("block2dRuns64B/rawGather", func(b *testing.B) {
		ty, src, dst := benchNestedBlock(b, false, 512, runs, 8)
		benchPackSerial(b, ty, src, dst)
	})
	b.Run("smoke", func(b *testing.B) {
		canonTy, src, dst := benchNestedBlock(b, true, rows, runs, 1)
		rawTy, _, _ := benchNestedBlock(b, false, rows, runs, 1)
		SetParallelPackThreshold(payload + 1)
		defer SetParallelPackThreshold(DefaultParallelPackThreshold)
		canon, err := canonTy.CompilePlan(1)
		if err != nil {
			b.Fatal(err)
		}
		raw, err := rawTy.CompilePlan(1)
		if err != nil {
			b.Fatal(err)
		}
		if canon.Kernel() != KernelBlock || raw.Kernel() != KernelGather {
			b.Fatalf("smoke geometry compiled to %v/%v, want block/gather", canon.Kernel(), raw.Kernel())
		}
		minPack := func(p *Plan) time.Duration {
			best := time.Duration(1 << 62)
			for r := 0; r < 9; r++ {
				start := time.Now()
				if _, err := p.Pack(src, dst); err != nil {
					b.Fatal(err)
				}
				if el := time.Since(start); el < best {
					best = el
				}
			}
			return best
		}
		minPack(canon) // warm the caches before the measured reps
		minPack(raw)
		canonBest, rawBest := minPack(canon), minPack(raw)
		speedup := float64(rawBest) / float64(canonBest)
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := canon.Pack(src, dst); err != nil {
				b.Fatal(err)
			}
		}); allocs != 0 {
			b.Fatalf("canonical pack allocates %.0f objects/op in steady state", allocs)
		}
		b.SetBytes(payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := canon.Pack(src, dst); err != nil {
				b.Fatal(err)
			}
		}
		// After the loop: ResetTimer deletes reported metrics.
		b.ReportMetric(speedup, "x-speedup")
	})
}

func BenchmarkVectorConstructHuge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ty, err := Vector(100_000_000, 1, 2, Float64)
		if err != nil {
			b.Fatal(err)
		}
		if err := ty.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStatsClosedForm(b *testing.B) {
	ty, err := Vector(100_000_000, 1, 2, Float64)
	if err != nil {
		b.Fatal(err)
	}
	_ = ty.Commit()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := ty.Stats(1)
		if st.Segments == 0 {
			b.Fatal("empty stats")
		}
	}
}

func BenchmarkVirtualPackHuge(b *testing.B) {
	ty, err := Vector(100_000_000, 1, 2, Float64)
	if err != nil {
		b.Fatal(err)
	}
	_ = ty.Commit()
	src := buf.Virtual(int(ty.Extent()))
	chunk := buf.Virtual(512 << 10)
	b.SetBytes(ty.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ty.NewPacker(src, 1)
		if err != nil {
			b.Fatal(err)
		}
		for p.Remaining() > 0 {
			if _, err := p.Pack(chunk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

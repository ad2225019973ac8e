package datatype

import (
	"math/rand"
	"testing"

	"repro/internal/buf"
)

// TestChecksumRangeDifferential pins ChecksumRange against the staged
// oracle: packing the full stream and summing the packed bytes must
// give the same value as the zero-staging range walk, for any split of
// the stream into [lo, hi) windows.
func TestChecksumRangeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xFACADE))
	for iter := 0; iter < 200; iter++ {
		ty := randPlanType(rng, 1)
		count := rng.Intn(3) + 1
		src := buf.Alloc(userBufLen(ty, count))
		src.FillPattern(byte(iter*3 + 1))

		plan, err := ty.CompilePlan(count)
		if err != nil {
			t.Fatalf("iter %d (%v): compile: %v", iter, ty, err)
		}
		packed := buf.Alloc(int(ty.PackSize(count)))
		if _, err := plan.Pack(src, packed); err != nil {
			t.Fatalf("iter %d (%v): pack: %v", iter, ty, err)
		}
		var oracle buf.Checksum
		oracle.Write(packed.Bytes())
		want := oracle.Sum64()

		// Whole-stream walk.
		var whole buf.Checksum
		plan.ChecksumRange(src, 0, plan.Bytes(), &whole)
		if whole.Sum64() != want {
			t.Fatalf("iter %d (%v, kernel %v): whole-range sum %#x != packed %#x",
				iter, ty, plan.Kernel(), whole.Sum64(), want)
		}

		// Random window split: summing piecewise over a partition of
		// [0, total) must agree — the chunk-invariance the pipelined
		// and fused senders rely on.
		var split buf.Checksum
		for lo := int64(0); lo < plan.Bytes(); {
			hi := lo + 1 + rng.Int63n(plan.Bytes()-lo)
			plan.ChecksumRange(src, lo, hi, &split)
			lo = hi
		}
		if split.Sum64() != want {
			t.Fatalf("iter %d (%v, kernel %v): split-range sum %#x != packed %#x",
				iter, ty, plan.Kernel(), split.Sum64(), want)
		}
	}
}

// TestChecksumRangeVirtual checks that a virtual user block is skipped
// length-only and agrees with an explicit SkipVirtual of the range.
func TestChecksumRangeVirtual(t *testing.T) {
	ty, err := Vector(8, 2, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	plan, err := ty.CompilePlan(2)
	if err != nil {
		t.Fatal(err)
	}
	user := buf.Virtual(userBufLen(ty, 2))

	var got buf.Checksum
	plan.ChecksumRange(user, 16, plan.Bytes(), &got)
	var want buf.Checksum
	want.SkipVirtual(plan.Bytes() - 16)
	if got.Sum64() != want.Sum64() {
		t.Fatalf("virtual range sum %#x != skip %#x", got.Sum64(), want.Sum64())
	}
}

// TestChecksumRangeClamps checks out-of-range windows are clamped and
// degenerate windows are no-ops.
func TestChecksumRangeClamps(t *testing.T) {
	ty, err := Vector(4, 1, 2, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src := buf.Alloc(userBufLen(ty, 1))
	src.FillPattern(9)

	var a, b buf.Checksum
	plan.ChecksumRange(src, -5, plan.Bytes()+100, &a)
	plan.ChecksumRange(src, 0, plan.Bytes(), &b)
	if a.Sum64() != b.Sum64() {
		t.Fatal("clamped range disagrees with exact range")
	}
	before := a.Sum64()
	plan.ChecksumRange(src, 8, 8, &a)
	plan.ChecksumRange(src, 10, 4, &a)
	if a.Sum64() != before {
		t.Fatal("degenerate range mutated the sum")
	}
}

// seededChecksums returns two checksums in the same state: carry
// pending bytes (0..7) behind phase whole words (0..3) already folded,
// so the next word lands in lane phase and, with a carry, straddles the
// next Write.
func seededChecksums(carry, phase int) (a, b buf.Checksum) {
	prefix := make([]byte, phase*8+carry)
	for i := range prefix {
		prefix[i] = byte(0xA5 ^ i*29)
	}
	a.Write(prefix)
	b.Write(prefix)
	return a, b
}

// checksumRangeMatches reports whether the range kernel over [lo, hi),
// entered from the seeded state, agrees with Write of the same packed
// bytes (Sum64 folds in the stream length too).
func checksumRangeMatches(plan *Plan, src buf.Block, packed []byte, lo, hi int64, carry, phase int) bool {
	want, got := seededChecksums(carry, phase)
	want.Write(packed[lo:hi])
	plan.ChecksumRange(src, lo, hi, &got)
	return got.Sum64() == want.Sum64()
}

// TestChecksumRangeKernel is the differential of the run-kernel
// ChecksumRange: for every kernel and batch shape, every [lo, hi) cut
// — on and off run boundaries — entered with every carry length and
// every lane phase must equal Write over the packed bytes.
func TestChecksumRangeKernel(t *testing.T) {
	strideOf := func(runLen, gap, n int) *Type {
		return mustType(Hvector(n, runLen, int64(runLen+gap), Byte))
	}
	row := mustType(Vector(4, 1, 2, Float64))
	block2d := mustType(Hvector(3, 1, 100, row))
	block3d := mustType(Hvector(2, 1, 300, mustType(Hvector(2, 1, 120, mustType(Vector(3, 1, 2, Float64))))))
	cases := []struct {
		name   string
		ty     *Type
		count  int
		kernel PlanKernel
	}{
		{"stride3", strideOf(3, 2, 32), 1, KernelStride},
		{"stride4", strideOf(4, 4, 24), 1, KernelStride},
		{"stride8", strideOf(8, 8, 12), 1, KernelStride},
		{"stride16", strideOf(16, 5, 6), 1, KernelStride},
		{"stride24", strideOf(24, 8, 4), 1, KernelStride},
		{"stride32", strideOf(32, 32, 3), 1, KernelStride},
		{"stride8x3", strideOf(8, 8, 5), 3, KernelStride},
		{"stride8resized", mustType(Resized(strideOf(8, 8, 5), 0, 107)), 3, KernelStride},
		{"stride4resized", mustType(Resized(strideOf(4, 4, 7), 0, 61)), 3, KernelStride},
		{"block2d", block2d, 1, KernelBlock},
		{"block3d", block3d, 1, KernelBlock},
		{"block2dx2", block2d, 2, KernelBlock},
		{"gatherUniform", mustType(IndexedBlock(1, []int{0, 3, 5, 10, 12, 17, 19, 22, 26, 29, 33, 40}, Float64)), 1, KernelGather},
		{"gatherMixed", mustType(Indexed([]int{1, 3, 2, 1, 4}, []int{0, 2, 7, 11, 13}, Float64)), 1, KernelGather},
		{"gatherMixedx2", mustType(Indexed([]int{1, 2, 1}, []int{0, 2, 6}, Float64)), 2, KernelGather},
		{"contig", mustType(Contiguous(12, Float64)), 1, KernelContig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := mustPlan(t, tc.ty, tc.count)
			if plan.Kernel() != tc.kernel {
				t.Fatalf("plan runs kernel %v, the case is meant for %v (%s)", plan.Kernel(), tc.kernel, tc.ty.CanonicalString())
			}
			if tc.name == "gatherUniform" && plan.prog.uniform != 8 {
				t.Fatalf("uniform segment length not hoisted: %d", plan.prog.uniform)
			}
			src := buf.Alloc(userBufLen(tc.ty, tc.count))
			src.FillPattern(0x5B)
			staged := buf.Alloc(int(plan.Bytes()))
			if _, err := plan.Pack(src, staged); err != nil {
				t.Fatal(err)
			}
			packed := staged.Bytes()
			for lo := int64(0); lo < plan.Bytes(); lo++ {
				for hi := lo + 1; hi <= plan.Bytes(); hi++ {
					for carry := 0; carry < 8; carry++ {
						for phase := 0; phase < 4; phase++ {
							if !checksumRangeMatches(plan, src, packed, lo, hi, carry, phase) {
								t.Fatalf("[%d,%d) carry %d phase %d: range sum differs from Write over the packed bytes", lo, hi, carry, phase)
							}
						}
					}
				}
			}
		})
	}
}

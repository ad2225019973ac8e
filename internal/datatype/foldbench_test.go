package datatype

import (
	"testing"

	"repro/internal/buf"
)

// BenchmarkFoldedMove is a typed_faulty sender's work at the kernel
// level — 4 MiB of every-other-double in 512 KiB chunks, packed or
// fused into blocks of four doubles — as the move alone, the move
// followed by a ChecksumRange pass per chunk (the sender before sums
// were folded into the move) and the summing move.
func BenchmarkFoldedMove(b *testing.B) {
	const n, chunk = 4 << 20, 512 << 10
	sendTy, src, packed := benchVector(b, n/8, 1, 2)
	recvTy, _, _ := benchVector(b, n/32, 4, 8)
	dst := buf.Alloc(int(recvTy.Extent()))
	sp, rp := sendTy.plan(1), recvTy.plan(1)
	sums := make([]uint64, n/chunk)
	sumPass := func() {
		for lo := int64(0); lo < n; lo += chunk {
			var cs buf.Checksum
			sp.ChecksumRange(src, lo, lo+chunk, &cs)
			sums[lo/chunk] = cs.Sum64()
		}
	}
	pack := func(sums []uint64) {
		if err := sp.PackRangeSum(src, packed, 0, n, chunk, sums); err != nil {
			b.Fatal(err)
		}
	}
	fused := func(sums []uint64) {
		if _, err := FusedCopySum(sp, rp, src, dst, chunk, sums); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"pack", func() { pack(nil) }},
		{"pack+sum", func() { pack(nil); sumPass() }},
		{"packsum", func() { pack(sums) }},
		{"fused", func() { fused(nil) }},
		{"fused+sum", func() { fused(nil); sumPass() }},
		{"fusedsum", func() { fused(sums) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				c.op()
			}
		})
	}
}

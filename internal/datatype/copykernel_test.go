package datatype

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
)

// byteCopyOracle is the definitional byte loop copyRun must match.
func byteCopyOracle(dst, src []byte, n int64) {
	for i := int64(0); i < n; i++ {
		dst[i] = src[i]
	}
}

// TestCopyRunMatchesByteLoop sweeps every (srcOffset, dstOffset,
// length) combination over the alignment-relevant range — co-aligned,
// co-aligned mod 4 only, and mutually misaligned pairs, with 1–7-byte
// tails — and requires copyRun to reproduce the byte loop exactly,
// without touching a byte outside [dstOff, dstOff+n).
func TestCopyRunMatchesByteLoop(t *testing.T) {
	const room = 600
	lengths := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 65, 100, 255, longRunCopy - 1, longRunCopy, longRunCopy + 17}
	src := make([]byte, room)
	for i := range src {
		src[i] = byte(i*131 + 7)
	}
	for srcOff := 0; srcOff < 9; srcOff++ {
		for dstOff := 0; dstOff < 9; dstOff++ {
			for _, n := range lengths {
				dst := make([]byte, room)
				want := make([]byte, room)
				for i := range dst {
					dst[i] = 0xCC
					want[i] = 0xCC
				}
				copyRun(dst[dstOff:], src[srcOff:], n)
				byteCopyOracle(want[dstOff:], src[srcOff:], n)
				if !bytes.Equal(dst, want) {
					t.Fatalf("copyRun(dstOff=%d, srcOff=%d, n=%d) differs from byte loop", dstOff, srcOff, n)
				}
			}
		}
	}
}

// TestCopyRunBoundsPanic pins the bounds contract: a run longer than
// either slice panics instead of corrupting memory.
func TestCopyRunBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("copyRun over-length did not panic")
		}
	}()
	copyRun(make([]byte, 4), make([]byte, 16), 8)
}

// groupSide is how one side of a copyRunGroups batch is laid out for a
// run length: run to run within a group, and group to group.
type groupSide struct {
	name string
	geom func(runLen, q int64) (step, group int64)
}

var groupSides = []groupSide{
	{"dense", func(l, q int64) (int64, int64) { return l, q * l }},
	{"strided", func(l, q int64) (int64, int64) { return l + 3, q*(l+3) + 5 }},
	{"reversed", func(l, q int64) (int64, int64) { return -(l + 3), -(q*(l+3) + 5) }},
}

// groupBase returns where run (0, 0) of a batch must start so that the
// whole batch lies at or after off, and how many bytes the batch spans
// from off.
func groupBase(off, step, group, runLen, q, k int64) (base, span int64) {
	reach := (q-1)*step + (k-1)*group
	if reach < 0 {
		return off - reach, -reach + runLen
	}
	return off, reach + runLen
}

// TestCopyRunGroupsMatchesByteLoop sweeps the batch kernel over every
// run-length class — the word fast paths (4, 8, 16, 8·m), the odd
// lengths and the long runs that go through copyRun — with each side
// dense, strided or walking backwards, group shapes around the 4×
// unroll, and every base alignment, against one copy per run. The
// buffers are sentinel-filled, so a byte written outside a run fails
// the comparison.
func TestCopyRunGroupsMatchesByteLoop(t *testing.T) {
	lengths := []int64{24, 32, 40, 64, 248, 256, 264}
	for l := int64(17); l >= 1; l-- {
		lengths = append([]int64{l}, lengths...)
	}
	const room = 16 << 10
	src := make([]byte, room)
	for i := range src {
		src[i] = byte(i*131 + 7)
	}
	dst, want := make([]byte, room), make([]byte, room)
	for _, runLen := range lengths {
		for _, ds := range groupSides {
			for _, ss := range groupSides {
				for _, q := range []int64{1, 3, 4, 5} {
					for _, k := range []int64{1, 2, 7} {
						dStep, dGroup := ds.geom(runLen, q)
						sStep, sGroup := ss.geom(runLen, q)
						for dOff := int64(0); dOff < 8; dOff++ {
							for sOff := int64(0); sOff < 8; sOff++ {
								do, dSpan := groupBase(dOff, dStep, dGroup, runLen, q, k)
								so, _ := groupBase(sOff, sStep, sGroup, runLen, q, k)
								// Sentinels up to eight bytes past the batch.
								got, exp := dst[:dOff+dSpan+8], want[:dOff+dSpan+8]
								for i := range got {
									got[i], exp[i] = 0xCC, 0xCC
								}
								for i := int64(0); i < k; i++ {
									for j := int64(0); j < q; j++ {
										o, u := do+i*dGroup+j*dStep, so+i*sGroup+j*sStep
										copy(exp[o:o+runLen], src[u:u+runLen])
									}
								}
								copyRunGroups(got, src, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k, nil)
								if !bytes.Equal(got, exp) {
									t.Fatalf("runLen %d dst %s@%d src %s@%d q %d k %d: differs from per-run copy",
										runLen, ds.name, dOff, ss.name, sOff, q, k)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCopyRunGroupsBoundsPanic pins the batch bounds contract: a batch
// whose last (or, walking backwards, first) run leaves either slice
// panics before any byte has moved, whichever path the run length
// takes.
func TestCopyRunGroupsBoundsPanic(t *testing.T) {
	const q, k = 5, 3
	for _, runLen := range []int64{4, 5, 8, 24, 264} {
		for _, side := range groupSides[1:] {
			step, group := side.geom(runLen, q)
			base, span := groupBase(0, step, group, runLen, q, k)
			type overrun struct {
				name         string
				dLen, sLen   int64
				dBase, sBase int64
			}
			cases := []overrun{
				{"dst short", span - 1, span, base, base},
				{"src short", span, span - 1, base, base},
			}
			if step < 0 {
				cases = append(cases,
					overrun{"dst below 0", span, span, base - 1, base},
					overrun{"src below 0", span, span, base, base - 1})
			}
			for _, c := range cases {
				dst, src := make([]byte, c.dLen), make([]byte, c.sLen)
				for i := range dst {
					dst[i] = 0xCC
				}
				for i := range src {
					src[i] = 0x11
				}
				// The folding move has the same contract, on its word
				// path and (a carried byte) on its run-by-run one.
				for _, sum := range []*buf.Checksum{nil, new(buf.Checksum), carried(1)} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("runLen %d %s, %s: overrunning batch did not panic (sum %v)", runLen, side.name, c.name, sum != nil)
							}
						}()
						copyRunGroups(dst, src, c.dBase, c.sBase, step, step, group, group, runLen, q, k, sum)
					}()
					for i, b := range dst {
						if b != 0xCC {
							t.Fatalf("runLen %d %s, %s: byte %d written before the panic (sum %v)", runLen, side.name, c.name, i, sum != nil)
						}
					}
				}
			}
		}
	}
}

// carried returns a checksum holding n pending bytes.
func carried(n int) *buf.Checksum {
	c := new(buf.Checksum)
	c.Write(make([]byte, n))
	return c
}

// TestFoldingMoveMatchesPlainMove is the differential of the strided
// move with a checksum riding along (buf.Checksum.MoveRuns under
// copyRunGroups): over every run-length class — one word, several,
// four-byte and odd lengths, the long runs — with each side dense,
// strided or walking backwards, group shapes around the 4× unroll,
// misaligned bases, and a checksum entered with 0–7 carried bytes in
// every lane phase, it leaves exactly the bytes the plain move leaves
// and exactly the state Write of each run in turn gives.
func TestFoldingMoveMatchesPlainMove(t *testing.T) {
	const room = 16 << 10
	src := make([]byte, room)
	for i := range src {
		src[i] = byte(i*131 + 7)
	}
	dst, want := make([]byte, room), make([]byte, room)
	for _, runLen := range []int64{4, 8, 12, 16, 24, 32, 40, 248, 256, 264, 7} {
		for _, ds := range groupSides {
			for _, ss := range groupSides {
				for _, q := range []int64{1, 3, 4, 5} {
					for _, k := range []int64{1, 2, 7} {
						dStep, dGroup := ds.geom(runLen, q)
						sStep, sGroup := ss.geom(runLen, q)
						for _, off := range [][2]int64{{0, 0}, {1, 0}, {0, 3}, {5, 5}, {7, 2}} {
							do, dSpan := groupBase(off[0], dStep, dGroup, runLen, q, k)
							so, _ := groupBase(off[1], sStep, sGroup, runLen, q, k)
							got, exp := dst[:off[0]+dSpan+8], want[:off[0]+dSpan+8]
							for i := range exp {
								exp[i] = 0xCC
							}
							copyRunGroups(exp, src, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k, nil)
							for carry := 0; carry < 8; carry++ {
								for phase := 0; phase < 4; phase++ {
									wantSum, gotSum := seededChecksums(carry, phase)
									for i := int64(0); i < k; i++ {
										for j := int64(0); j < q; j++ {
											u := so + i*sGroup + j*sStep
											wantSum.Write(src[u : u+runLen])
										}
									}
									for i := range got {
										got[i] = 0xCC
									}
									copyRunGroups(got, src, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k, &gotSum)
									if !bytes.Equal(got, exp) {
										t.Fatalf("runLen %d dst %s@%d src %s@%d q %d k %d carry %d phase %d: bytes differ from the plain move",
											runLen, ds.name, off[0], ss.name, off[1], q, k, carry, phase)
									}
									// The states must agree, not just the sums: what is
									// folded next depends on lanes, phase and carry.
									if gotSum != wantSum {
										t.Fatalf("runLen %d dst %s@%d src %s@%d q %d k %d carry %d phase %d: state differs from Write per run",
											runLen, ds.name, off[0], ss.name, off[1], q, k, carry, phase)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkCopyRunShort measures the word kernel on the short-run
// lengths the paper's layouts produce, against the runtime memmove.
func BenchmarkCopyRunShort(b *testing.B) {
	for _, n := range []int64{8, 12, 24, 56} {
		src := make([]byte, 4096)
		dst := make([]byte, 4096)
		b.Run(fmt.Sprintf("copyRun/%dB", n), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				copyRun(dst[(i%64)*8:], src[(i%64)*8:], n)
			}
		})
		b.Run(fmt.Sprintf("memmove/%dB", n), func(b *testing.B) {
			b.SetBytes(n)
			for i := 0; i < b.N; i++ {
				o := (i % 64) * 8
				copy(dst[o:o+int(n)], src[o:o+int(n)])
			}
		})
	}
}

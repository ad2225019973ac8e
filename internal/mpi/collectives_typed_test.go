package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
)

// mustCommit commits a constructed type or fails the test.
func mustCommit(tb testing.TB, ty *datatype.Type, err error) *datatype.Type {
	tb.Helper()
	if err != nil {
		tb.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		tb.Fatal(err)
	}
	return ty
}

// typedNeed returns the buffer bytes count instances of ty require.
func typedNeed(ty *datatype.Type, count int) int {
	if count <= 0 {
		return 0
	}
	return int(int64(count-1)*ty.Extent() + ty.TrueLB() + ty.TrueExtent())
}

// typedBuf returns a pattern-filled buffer covering count instances.
func typedBuf(ty *datatype.Type, count int, seed byte) buf.Block {
	b := buf.Alloc(typedNeed(ty, count))
	b.FillPattern(seed)
	return b
}

// packView packs count instances of ty from view into fresh bytes.
func packView(tb testing.TB, ty *datatype.Type, count int, view buf.Block) []byte {
	tb.Helper()
	dst := buf.Alloc(int(ty.PackSize(count)))
	if _, err := ty.Pack(view, count, dst); err != nil {
		tb.Fatal(err)
	}
	return dst.Bytes()
}

// collConfig is one layout family of the differential sweep: gapped
// vectors and a resized (extent-grown) base, per the dense-base sweep.
type collConfig struct {
	name  string
	count int
	mk    func(tb testing.TB) *datatype.Type
}

var collConfigs = []collConfig{
	{"everyOther", 3, func(tb testing.TB) *datatype.Type {
		ty, err := datatype.Vector(5, 1, 2, datatype.Float64)
		return mustCommit(tb, ty, err)
	}},
	{"blockGap", 2, func(tb testing.TB) *datatype.Type {
		ty, err := datatype.Vector(4, 2, 5, datatype.Float64)
		return mustCommit(tb, ty, err)
	}},
	{"resizedGap", 3, func(tb testing.TB) *datatype.Type {
		inner, err := datatype.Vector(4, 1, 2, datatype.Float64)
		if err != nil {
			tb.Fatal(err)
		}
		ty, err := datatype.Resized(inner, 0, inner.Extent()+16)
		return mustCommit(tb, ty, err)
	}},
}

var collSizes = []int{1, 2, 3, 5, 8}

// rankSeed is the per-rank fill pattern of the differential tests.
func rankSeed(r int) byte { return byte(0x11 + 7*r) }

// TestGatherTypeDifferential checks GatherType against the
// pack → contiguous gather → unpack oracle over every layout family
// and rank counts 1–8 (small legs: tree mode above 2 ranks).
func TestGatherTypeDifferential(t *testing.T) {
	for _, cfg := range collConfigs {
		for _, size := range collSizes {
			t.Run(fmt.Sprintf("%s/n%d", cfg.name, size), func(t *testing.T) {
				ty := cfg.mk(t)
				count := cfg.count
				root := size / 2
				pitch := int(int64(count) * ty.Extent())
				recvLen := pitch*(size-1) + typedNeed(ty, count)
				var got []byte
				runN(t, size, func(c *Comm) error {
					send := typedBuf(ty, count, rankSeed(c.Rank()))
					recv := buf.Alloc(recvLen)
					if err := c.GatherType(send, count, ty, recv, count, ty, root); err != nil {
						return err
					}
					if c.Rank() == root {
						got = append([]byte(nil), recv.Bytes()...)
					}
					return nil
				})
				oracle := buf.Alloc(recvLen)
				for r := 0; r < size; r++ {
					packed := packView(t, ty, count, typedBuf(ty, count, rankSeed(r)))
					view := oracle.Slice(r*pitch, recvLen-r*pitch)
					if _, err := ty.Unpack(buf.FromBytes(packed), count, view); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, oracle.Bytes()) {
					t.Fatal("typed gather differs from pack→gather→unpack oracle")
				}
			})
		}
	}
}

// TestBcastTypeDifferential checks the typed broadcast: every rank's
// layout must hold exactly what a pack→bcast→unpack pipeline delivers
// (gap bytes stay zero on receivers).
func TestBcastTypeDifferential(t *testing.T) {
	for _, cfg := range collConfigs {
		for _, size := range collSizes {
			t.Run(fmt.Sprintf("%s/n%d", cfg.name, size), func(t *testing.T) {
				ty := cfg.mk(t)
				count := cfg.count
				root := size - 1
				const seed = 0x2A
				got := make([][]byte, size)
				runN(t, size, func(c *Comm) error {
					var b buf.Block
					if c.Rank() == root {
						b = typedBuf(ty, count, seed)
					} else {
						b = buf.Alloc(typedNeed(ty, count))
					}
					if err := c.BcastType(b, count, ty, root); err != nil {
						return err
					}
					if c.Rank() != root {
						got[c.Rank()] = append([]byte(nil), b.Bytes()...)
					}
					return nil
				})
				packed := packView(t, ty, count, typedBuf(ty, count, seed))
				oracle := buf.Alloc(typedNeed(ty, count))
				if _, err := ty.Unpack(buf.FromBytes(packed), count, oracle); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < size; r++ {
					if r == root {
						continue
					}
					if !bytes.Equal(got[r], oracle.Bytes()) {
						t.Fatalf("typed bcast rank %d differs from oracle", r)
					}
				}
			})
		}
	}
}

// TestAllgatherTypeDifferential checks the typed ring allgather on
// every rank against the oracle.
func TestAllgatherTypeDifferential(t *testing.T) {
	for _, cfg := range collConfigs {
		for _, size := range collSizes {
			t.Run(fmt.Sprintf("%s/n%d", cfg.name, size), func(t *testing.T) {
				ty := cfg.mk(t)
				count := cfg.count
				pitch := int(int64(count) * ty.Extent())
				recvLen := pitch*(size-1) + typedNeed(ty, count)
				got := make([][]byte, size)
				runN(t, size, func(c *Comm) error {
					send := typedBuf(ty, count, rankSeed(c.Rank()))
					recv := buf.Alloc(recvLen)
					if err := c.AllgatherType(send, count, ty, recv, count, ty); err != nil {
						return err
					}
					got[c.Rank()] = append([]byte(nil), recv.Bytes()...)
					return nil
				})
				oracle := buf.Alloc(recvLen)
				for r := 0; r < size; r++ {
					packed := packView(t, ty, count, typedBuf(ty, count, rankSeed(r)))
					view := oracle.Slice(r*pitch, recvLen-r*pitch)
					if _, err := ty.Unpack(buf.FromBytes(packed), count, view); err != nil {
						t.Fatal(err)
					}
				}
				for r := 0; r < size; r++ {
					if !bytes.Equal(got[r], oracle.Bytes()) {
						t.Fatalf("typed allgather rank %d differs from oracle", r)
					}
				}
			})
		}
	}
}

// TestGathervScattervTypeDifferential checks the v-variants with
// per-rank counts and permuted, gapped displacements against the
// oracle.
func TestGathervScattervTypeDifferential(t *testing.T) {
	for _, cfg := range collConfigs {
		for _, size := range collSizes {
			t.Run(fmt.Sprintf("%s/n%d", cfg.name, size), func(t *testing.T) {
				ty := cfg.mk(t)
				ext := int(ty.Extent())
				counts := make([]int, size)
				displs := make([]int, size)
				maxEnd := 0
				for r := 0; r < size; r++ {
					counts[r] = 1 + r%cfg.count
					// Reverse the slots and leave a one-extent gap
					// between them.
					displs[r] = (size - 1 - r) * (cfg.count + 1)
					if end := displs[r]*ext + typedNeed(ty, counts[r]); end > maxEnd {
						maxEnd = end
					}
				}
				root := size / 2
				rootLen := maxEnd

				// Gatherv.
				var got []byte
				runN(t, size, func(c *Comm) error {
					send := typedBuf(ty, counts[c.Rank()], rankSeed(c.Rank()))
					var recv buf.Block
					if c.Rank() == root {
						recv = buf.Alloc(rootLen)
					}
					if err := c.GathervType(send, counts[c.Rank()], ty, recv, counts, displs, ty, root); err != nil {
						return err
					}
					if c.Rank() == root {
						got = append([]byte(nil), recv.Bytes()...)
					}
					return nil
				})
				oracle := buf.Alloc(rootLen)
				for r := 0; r < size; r++ {
					packed := packView(t, ty, counts[r], typedBuf(ty, counts[r], rankSeed(r)))
					view := oracle.Slice(displs[r]*ext, rootLen-displs[r]*ext)
					if _, err := ty.Unpack(buf.FromBytes(packed), counts[r], view); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(got, oracle.Bytes()) {
					t.Fatal("typed gatherv differs from oracle")
				}

				// Scatterv back out of the oracle image.
				gotV := make([][]byte, size)
				runN(t, size, func(c *Comm) error {
					var send buf.Block
					if c.Rank() == root {
						send = buf.Alloc(rootLen)
						buf.Copy(send, oracle)
					}
					recv := buf.Alloc(typedNeed(ty, counts[c.Rank()]))
					if err := c.ScattervType(send, counts, displs, ty, recv, counts[c.Rank()], ty, root); err != nil {
						return err
					}
					gotV[c.Rank()] = append([]byte(nil), recv.Bytes()...)
					return nil
				})
				for r := 0; r < size; r++ {
					packed := packView(t, ty, counts[r], oracle.Slice(displs[r]*ext, rootLen-displs[r]*ext))
					want := buf.Alloc(typedNeed(ty, counts[r]))
					if _, err := ty.Unpack(buf.FromBytes(packed), counts[r], want); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotV[r], want.Bytes()) {
						t.Fatalf("typed scatterv slot %d differs from oracle", r)
					}
				}
			})
		}
	}
}

// TestGatherv gathers byte contributions of different lengths at
// byte displacements, the untyped MPI_Gatherv pattern over
// datatype.Byte.
func TestGatherv(t *testing.T) {
	runN(t, 3, func(c *Comm) error {
		// Rank r contributes r+1 8-byte chunks.
		n := (c.Rank() + 1) * 8
		send := buf.Alloc(n)
		send.FillPattern(byte(c.Rank()))
		counts := []int{8, 16, 24}
		displs := []int{0, 8, 24}
		recv := buf.Alloc(48)
		if err := c.GathervType(send, n, datatype.Byte, recv, counts, displs, datatype.Byte, 0); err != nil {
			return err
		}
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				if err := oracle.VerifyPattern(recv.Slice(displs[r], counts[r]), byte(r)); err != nil {
					t.Errorf("slot %d: %v", r, err)
				}
			}
		}
		return nil
	})
}

// TestScatterv is TestGatherv's inverse over ScattervType.
func TestScatterv(t *testing.T) {
	runN(t, 3, func(c *Comm) error {
		counts := []int{8, 16, 24}
		displs := []int{0, 8, 24}
		send := buf.Alloc(48)
		if c.Rank() == 0 {
			for r := 0; r < 3; r++ {
				send.Slice(displs[r], counts[r]).FillPattern(byte(10 + r))
			}
		}
		recv := buf.Alloc(counts[c.Rank()])
		if err := c.ScattervType(send, counts, displs, datatype.Byte, recv, counts[c.Rank()], datatype.Byte, 0); err != nil {
			return err
		}
		return oracle.VerifyPattern(recv, byte(10+c.Rank()))
	})
}

// TestGathervBadGeometry checks that the root rejects counts and
// displacements that do not cover the world, and that a correct call
// afterwards still consumes the pending contribution.
func TestGathervBadGeometry(t *testing.T) {
	runN(t, 2, func(c *Comm) error {
		if c.Rank() != 0 {
			// Non-roots just contribute; counts/displs are root-only.
			return c.GathervType(buf.Alloc(8), 8, datatype.Byte, buf.Block{}, nil, nil, datatype.Byte, 0)
		}
		// Root first tries a malformed geometry, then a correct call
		// that actually consumes the contribution.
		if err := c.GathervType(buf.Alloc(8), 8, datatype.Byte, buf.Alloc(16), []int{8}, []int{0}, datatype.Byte, 0); !errors.Is(err, ErrCount) {
			t.Errorf("short counts: got %v, want ErrCount", err)
		}
		if err := c.GathervType(buf.Alloc(8), 8, datatype.Byte, buf.Alloc(16), []int{8, 8}, []int{0, 9}, datatype.Byte, 0); !errors.Is(err, ErrTruncate) {
			t.Errorf("slot past the buffer: got %v, want ErrTruncate", err)
		}
		return c.GathervType(buf.Alloc(8), 8, datatype.Byte, buf.Alloc(16), []int{8, 8}, []int{0, 8}, datatype.Byte, 0)
	})
}

// TestGatherTypeAsymmetricLayouts checks a rendezvous-sized gather
// whose send and receive layouts differ (every-other doubles arriving
// as blocked pairs): the fused remote legs must deliver exactly the
// staged pipeline's bytes.
func TestGatherTypeAsymmetricLayouts(t *testing.T) {
	const k = 1 << 14 // 128 KiB payload per rank, past every eager limit
	sendTyRaw, err := datatype.Vector(k, 1, 2, datatype.Float64)
	sendTy := mustCommit(t, sendTyRaw, err)
	recvTyRaw, err := datatype.Vector(k/2, 2, 5, datatype.Float64)
	recvTy := mustCommit(t, recvTyRaw, err)
	const size, root = 4, 1
	pitch := int(recvTy.Extent())
	recvLen := pitch*(size-1) + typedNeed(recvTy, 1)
	var got []byte
	runN(t, size, func(c *Comm) error {
		send := typedBuf(sendTy, 1, rankSeed(c.Rank()))
		recv := buf.Alloc(recvLen)
		if err := c.GatherType(send, 1, sendTy, recv, 1, recvTy, root); err != nil {
			return err
		}
		if c.Rank() == root {
			got = append([]byte(nil), recv.Bytes()...)
		}
		return nil
	})
	oracle := buf.Alloc(recvLen)
	for r := 0; r < size; r++ {
		packed := packView(t, sendTy, 1, typedBuf(sendTy, 1, rankSeed(r)))
		view := oracle.Slice(r*pitch, recvLen-r*pitch)
		if _, err := recvTy.Unpack(buf.FromBytes(packed), 1, view); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, oracle.Bytes()) {
		t.Fatal("asymmetric typed gather differs from oracle")
	}
}

// TestTypedCollectivesRendezvousZeroStaging pins the tentpole
// contract: rendezvous-sized typed collectives draw no pooled staging
// or transit blocks anywhere — the root self-leg is a fused copy, the
// remote legs are fused sendv rendezvous — and every payload is
// attributed fused, none staged.
func TestTypedCollectivesRendezvousZeroStaging(t *testing.T) {
	const k = 1 << 14 // 128 KiB per leg
	const size = 4
	poolBefore := buf.PoolStatsSnapshot()
	planBefore := datatype.PlanStatsSnapshot()
	runN(t, size, func(c *Comm) error {
		ty := everyOther(t, k)
		pitch := int(ty.Extent())
		send := typedBuf(ty, 1, rankSeed(c.Rank()))
		recv := buf.Alloc(pitch*(size-1) + typedNeed(ty, 1))
		return c.GatherType(send, 1, ty, recv, 1, ty, 0)
	})
	if d := buf.PoolStatsSnapshot().Sub(poolBefore); d.Gets != 0 {
		t.Fatalf("typed collectives drew %d pooled staging/transit blocks, want 0 (%+v)", d.Gets, d)
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps == 0 {
		t.Fatalf("no fused attribution on the typed collectives: %+v", d)
	}
	if d.StagedOps != 0 {
		t.Fatalf("staged attribution leaked into rendezvous typed collectives: %+v", d)
	}
}

// TestTypedSelfLegOverlapUnsafeStages pins the self-leg fallback: a
// receive layout whose repeated instances interleave (extent resized
// under the span) declines the fused copy, stages through the pool,
// and still matches the sequential pack→unpack oracle.
func TestTypedSelfLegOverlapUnsafeStages(t *testing.T) {
	mk := func(tb testing.TB) *datatype.Type {
		inner, err := datatype.Indexed([]int{1, 1}, []int{0, 2}, datatype.Float64)
		if err != nil {
			tb.Fatal(err)
		}
		ty, err := datatype.Resized(inner, 0, 8)
		return mustCommit(tb, ty, err)
	}
	recvTy := mk(t)
	const recvCount = 4
	sendTyRaw, err := datatype.Vector(recvCount*2, 1, 2, datatype.Float64)
	sendTy := mustCommit(t, sendTyRaw, err)
	planBefore := datatype.PlanStatsSnapshot()
	var got []byte
	runN(t, 1, func(c *Comm) error {
		send := typedBuf(sendTy, 1, 0x3C)
		recv := buf.Alloc(typedNeed(recvTy, recvCount))
		if err := c.GatherType(send, 1, sendTy, recv, recvCount, recvTy, 0); err != nil {
			return err
		}
		got = append([]byte(nil), recv.Bytes()...)
		return nil
	})
	packed := packView(t, sendTy, 1, typedBuf(sendTy, 1, 0x3C))
	want := buf.Alloc(len(got))
	if _, err := recvTy.Unpack(buf.FromBytes(packed), recvCount, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("overlap-unsafe self-leg differs from the staged oracle")
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.StagedOps == 0 || d.FusedOps != 0 {
		t.Fatalf("attribution fused=%d staged=%d, want 0/>0", d.FusedOps, d.StagedOps)
	}
}

// TestContigWrappersStillMatch pins the thin-wrapper contract: the
// byte-buffer collectives must deliver identical bytes through the
// typed engine (their legs ride the raw contiguous paths).
func TestContigWrappersStillMatch(t *testing.T) {
	const n, size = 96, 5
	runN(t, size, func(c *Comm) error {
		send := buf.Alloc(n)
		send.FillPattern(byte(c.Rank()))
		recv := buf.Alloc(n * size)
		if err := c.Allgather(send, recv); err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			if err := oracle.VerifyPattern(recv.Slice(r*n, n), byte(r)); err != nil {
				t.Errorf("allgather slot %d: %v", r, err)
			}
		}
		back := buf.Alloc(n)
		if c.Rank() == 1 {
			back.FillPattern(1)
		}
		if err := c.Bcast(back, 1); err != nil {
			return err
		}
		return oracle.VerifyPattern(back, 1)
	})
}

// BenchmarkTypedCollectives is the CI smoke for the typed-collective
// zero-staging contract: rendezvous-sized GatherType rounds; any pooled
// staging or transit draw on the fused legs or the root self-leg fails
// the bench.
func BenchmarkTypedCollectives(b *testing.B) {
	const k = 1 << 14
	const size = 4
	before := buf.PoolStatsSnapshot()
	b.SetBytes(int64(k) * 8 * size)
	for i := 0; i < b.N; i++ {
		err := Run(size, Options{}, func(c *Comm) error {
			ty := everyOther(b, k)
			pitch := int(ty.Extent())
			send := buf.Alloc(typedNeed(ty, 1))
			recv := buf.Alloc(pitch*(size-1) + typedNeed(ty, 1))
			return c.GatherType(send, 1, ty, recv, 1, ty, 0)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d := buf.PoolStatsSnapshot().Sub(before); d.Gets != 0 {
		b.Fatalf("typed collectives drew %d pooled staging blocks, want 0 (%+v)", d.Gets, d)
	}
}

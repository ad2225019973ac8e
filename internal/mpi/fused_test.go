package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
)

// everyOther returns a committed every-other-double vector of count
// elements.
func everyOther(t testing.TB, count int) *datatype.Type {
	t.Helper()
	ty, err := datatype.Vector(count, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	return ty
}

// packedOracle returns the packed stream of (ty, count) over a
// pattern-filled source.
func packedOracle(t testing.TB, ty *datatype.Type, count int, seed byte) []byte {
	t.Helper()
	src := buf.Alloc(int(int64(count-1)*ty.Extent() + ty.TrueLB() + ty.TrueExtent()))
	src.FillPattern(seed)
	dst := buf.Alloc(int(ty.PackSize(count)))
	if _, err := ty.Pack(src, count, dst); err != nil {
		t.Fatal(err)
	}
	return dst.Bytes()
}

// TestSendvTypedToTypedZeroStaging pins the tentpole contract: a
// rendezvous sendv between two typed layouts moves the payload in one
// fused pass — zero pool allocations (no transit, no staging), fused
// attribution, no staged attribution — and the receiver's layout holds
// exactly what a staged transfer would deliver.
func TestSendvTypedToTypedZeroStaging(t *testing.T) {
	const count = 1 << 17 // 1 MiB payload, far over every eager limit
	const reps = 3
	poolBefore := buf.PoolStatsSnapshot()
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0xA7)
			for rep := 0; rep < reps; rep++ {
				if err := c.SendvType(src, 1, ty, 1, 7); err != nil {
					return err
				}
			}
		} else {
			for rep := 0; rep < reps; rep++ {
				dst := buf.Alloc(int(ty.Extent()))
				st, err := c.RecvType(dst, 1, ty, 0, 7)
				if err != nil {
					return err
				}
				if st.Count != ty.Size() {
					t.Errorf("status count %d, want %d", st.Count, ty.Size())
				}
				// Every layout byte must match the source pattern; gap
				// bytes stay zero.
				want := buf.Alloc(int(ty.Extent()))
				want.FillPattern(0xA7)
				for i := 0; i < dst.Len(); i += 16 {
					for j := 0; j < 8; j++ {
						if dst.Bytes()[i+j] != want.Bytes()[i+j] {
							t.Fatalf("layout byte %d differs", i+j)
						}
					}
					for j := 8; j < 16 && i+j < dst.Len(); j++ {
						if dst.Bytes()[i+j] != 0 {
							t.Fatalf("gap byte %d written", i+j)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := buf.PoolStatsSnapshot().Sub(poolBefore); d.Gets != 0 {
		t.Fatalf("fused rendezvous drew %d pooled staging/transit blocks, want 0 (%+v)", d.Gets, d)
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps != reps || d.FusedBytes != reps*int64(count)*8 {
		t.Fatalf("fused attribution %d ops / %d B, want %d / %d", d.FusedOps, d.FusedBytes, reps, reps*int64(count)*8)
	}
	if d.StagedOps != 0 {
		t.Fatalf("staged attribution leaked into the fused path: %+v", d)
	}
}

// TestSendvToContigRecv pins the typed→contiguous fused pass: the
// packed stream lands in the receiver's buffer with no staging pool
// draw, attributed as fused.
func TestSendvToContigRecv(t *testing.T) {
	const count = 1 << 16
	want := packedOracle(t, everyOther(t, count), 1, 0x51)
	poolBefore := buf.PoolStatsSnapshot()
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0x51)
			return c.SendvType(src, 1, ty, 1, 3)
		}
		dst := buf.Alloc(int(ty.Size()))
		if _, err := c.Recv(dst, 0, 3); err != nil {
			return err
		}
		if !bytes.Equal(dst.Bytes(), want) {
			t.Error("contiguous receive differs from the packed stream")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := buf.PoolStatsSnapshot().Sub(poolBefore); d.Gets != 0 {
		t.Fatalf("typed→contig fused send drew %d pooled blocks, want 0", d.Gets)
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps != 1 || d.StagedOps != 0 {
		t.Fatalf("attribution fused=%d staged=%d, want 1/0", d.FusedOps, d.StagedOps)
	}
}

// TestSendvEagerFallsBackStaged pins the eager fallback: small sendv
// payloads ride the ordinary staged typed path, byte-identically.
func TestSendvEagerFallsBackStaged(t *testing.T) {
	const count = 256 // 2 KiB payload, under every eager limit
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0x13)
			return c.SendvType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Extent()))
		if _, err := c.RecvType(dst, 1, ty, 0, 0); err != nil {
			return err
		}
		want := buf.Alloc(int(ty.Extent()))
		want.FillPattern(0x13)
		for i := 0; i < dst.Len(); i += 16 {
			if !bytes.Equal(dst.Bytes()[i:i+8], want.Bytes()[i:i+8]) {
				t.Fatalf("layout byte %d differs after eager fallback", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps != 0 {
		t.Fatalf("eager-sized sendv ran the fused path: %+v", d)
	}
	if d.StagedOps == 0 {
		t.Fatalf("eager-sized sendv recorded no staged transfer: %+v", d)
	}
}

// TestSendvAliasedBuffersStaged pins the overlap fallback: when the
// sender's and receiver's buffers alias (the rank goroutines share one
// allocation), the fused engine must not scatter over bytes it has yet
// to read — the sender-local staged emulation runs instead and the
// result matches the staged oracle.
func TestSendvAliasedBuffersStaged(t *testing.T) {
	const count = 1 << 15 // over the eager limit
	shared := buf.Alloc(3 * count * 8)
	shared.FillPattern(0x2C)

	// Oracle: snapshot-pack the sender view, then unpack into the
	// receiver view of a copy.
	oracle := buf.Alloc(shared.Len())
	buf.Copy(oracle, shared)
	srcTyO := everyOther(t, count)
	packed := buf.Alloc(int(srcTyO.PackSize(1)))
	if _, err := srcTyO.Pack(oracle, 1, packed); err != nil {
		t.Fatal(err)
	}
	dstTyO, err := datatype.Vector(count, 1, 3, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := dstTyO.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := dstTyO.Unpack(packed, 1, oracle); err != nil {
		t.Fatal(err)
	}

	planBefore := datatype.PlanStatsSnapshot()
	err = Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			ty := everyOther(t, count)
			return c.SendvType(shared, 1, ty, 1, 9)
		}
		ty, err := datatype.Vector(count, 1, 3, datatype.Float64)
		if err != nil {
			return err
		}
		if err := ty.Commit(); err != nil {
			return err
		}
		_, rerr := c.RecvType(shared, 1, ty, 0, 9)
		return rerr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !buf.Equal(shared, oracle) {
		t.Fatal("aliased sendv differs from the staged oracle")
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.StagedOps == 0 {
		t.Fatalf("aliased sendv did not run the staged emulation: %+v", d)
	}
	if d.FusedOps != 0 {
		t.Fatalf("aliased sendv ran the fused fast path: %+v", d)
	}
}

// TestSendvOverlapUnsafeReceiverStages pins the receiver-side decline:
// a destination layout with interleaving repeated instances refuses
// the fused offer, the transfer stages, and the payload still arrives
// exactly as a staged typed send would deliver it.
func TestSendvOverlapUnsafeReceiverStages(t *testing.T) {
	// Receiver type: 24-byte span resized to an 8-byte extent, count 3
	// — repeated instances interleave, FusedDstSafe is false.
	mk := func() *datatype.Type {
		inner, err := datatype.Indexed([]int{1, 1}, []int{0, 2}, datatype.Float64)
		if err != nil {
			t.Fatal(err)
		}
		rz, err := datatype.Resized(inner, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := rz.Commit(); err != nil {
			t.Fatal(err)
		}
		return rz
	}
	recvTy := mk()
	const recvCount = 1 << 13
	n := recvTy.PackSize(recvCount) // 16 B per instance

	// Sender: a contiguous-count vector with the same packed size,
	// over the eager limit.
	srcCount := int(n / 8)
	planBefore := datatype.PlanStatsSnapshot()
	var got []byte
	err := Run(2, Options{}, func(c *Comm) error {
		if c.Rank() == 0 {
			ty := everyOther(t, srcCount)
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0x77)
			return c.SendvType(src, 1, ty, 1, 4)
		}
		dst := buf.Alloc(int(int64(recvCount-1)*recvTy.Extent() + recvTy.TrueExtent()))
		if _, err := c.RecvType(dst, recvCount, recvTy, 0, 4); err != nil {
			return err
		}
		got = append([]byte(nil), dst.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: staged pack→unpack.
	packed := packedOracle(t, everyOther(t, srcCount), 1, 0x77)
	want := make([]byte, len(got))
	if _, err := recvTy.Unpack(buf.FromBytes(packed), recvCount, buf.FromBytes(want)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("overlap-unsafe receiver's staged delivery differs from oracle")
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps != 0 || d.StagedOps == 0 {
		t.Fatalf("attribution fused=%d staged=%d, want 0/>0", d.FusedOps, d.StagedOps)
	}
}

// TestSendvMismatchedBytesStaged pins the size-mismatch fallback: a
// receiver posting more instances than the sender ships gets the
// prefix via the staged emulation, like any typed rendezvous — in one
// internal chunk, and in three chunks and a tail that the sender stages
// chunk by chunk on the pack workers; on a clean fabric, under a
// selective replay of the first chunk and under a whole-transfer
// replay. The receiver's layout must equal the staged oracle (pack,
// then unpack the prefix), and a clean multi-chunk transfer attributes
// every chunk once to each plan and to the pipelined tier.
func TestSendvMismatchedBytesStaged(t *testing.T) {
	const chunk = 512 << 10 // the generic profile's internal chunk
	faulty := &simnet.FaultPlan{Seed: 29, Scripted: []simnet.ScriptedFault{
		{Src: 0, Dst: 1, Seq: 0, Payload: true, Kind: simnet.FaultCorrupt}}}
	for _, sendCount := range []int{1 << 15, 3*chunk/8 + 1} {
		sendTy, recvTy := everyOther(t, sendCount), everyOther(t, sendCount+1024)
		n := sendTy.Size()
		src := buf.Alloc(int(sendTy.Extent()))
		src.FillPattern(0x66)
		stream := buf.Alloc(int(n))
		if _, err := sendTy.Pack(src, 1, stream); err != nil {
			t.Fatal(err)
		}
		recvPlan, err := recvTy.CompilePlan(1)
		if err != nil {
			t.Fatal(err)
		}
		want := buf.Alloc(int(recvTy.Extent()))
		if err := recvPlan.UnpackRange(stream, want, 0, n); err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			name   string
			faults *simnet.FaultPlan
			retry  RetryPolicy
		}{
			{"clean", nil, RetryPolicy{}},
			{"selective", faulty, RetryPolicy{}},
			{"whole", faulty, RetryPolicy{WholeReplay: true}},
		} {
			t.Run(fmt.Sprintf("%dB/%s", n, run.name), func(t *testing.T) {
				dst := buf.Alloc(want.Len())
				var retries int64
				planBefore := datatype.PlanStatsSnapshot()
				err := Run(2, Options{Faults: run.faults, Retry: run.retry, WallLimit: 30 * time.Second}, func(c *Comm) error {
					if c.Rank() == 0 {
						err := c.SendvType(src, 1, sendTy, 1, 5)
						retries = c.Counters().Retries
						return err
					}
					st, err := c.RecvType(dst, 1, recvTy, 0, 5)
					if err == nil && st.Count != n {
						t.Errorf("status count %d, want %d", st.Count, n)
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if !buf.Equal(dst, want) {
					t.Fatal("receiver's layout differs from the staged oracle")
				}
				if (run.faults != nil) != (retries > 0) {
					t.Fatalf("%d retries on a %s fabric", retries, run.name)
				}
				d := datatype.PlanStatsSnapshot().Sub(planBefore)
				if d.FusedOps != 0 || d.StagedOps == 0 {
					t.Fatalf("attribution fused=%d staged=%d, want 0/>0", d.FusedOps, d.StagedOps)
				}
				if chunks := (n + chunk - 1) / chunk; chunks > 1 && run.faults == nil &&
					(d.ChunkOps != 2*chunks || d.PipelinedOps != chunks || d.PipelinedBytes != n || d.StagedOps != 1) {
					t.Fatalf("%d chunks attributed as %d chunk ops, %d pipelined (%d B), %d staged; want %d, %d (%d B), 1",
						chunks, d.ChunkOps, d.PipelinedOps, d.PipelinedBytes, d.StagedOps, 2*chunks, chunks, n)
				}
			})
		}
	}
}

// TestSendvVirtual pins the virtual-payload path end to end: protocol
// and costs run, no bytes move, attribution still lands.
func TestSendvVirtual(t *testing.T) {
	const count = 1 << 20
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			return c.SendvType(buf.Virtual(int(ty.Extent())), 1, ty, 1, 2)
		}
		st, err := c.RecvType(buf.Virtual(int(ty.Extent())), 1, ty, 0, 2)
		if err != nil {
			return err
		}
		if st.Count != ty.Size() {
			t.Errorf("virtual sendv status count %d, want %d", st.Count, ty.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := datatype.PlanStatsSnapshot().Sub(planBefore); d.FusedOps != 1 {
		t.Fatalf("virtual sendv fused attribution %+v", d)
	}
}

// TestSendvBufferTooSmallFailsLocally pins SendType parity: a send
// buffer that cannot carry the message errors on the caller before
// any envelope enters the fabric, so the peer's receive is untouched
// and still matches a subsequent good send.
func TestSendvBufferTooSmallFailsLocally(t *testing.T) {
	const count = 1 << 15 // rendezvous-sized
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			short := buf.Alloc(int(ty.Extent() / 2))
			if err := c.SendvType(short, 1, ty, 1, 0); err == nil {
				t.Error("undersized sendv buffer accepted")
			}
			// The failed call must not have consumed the peer's
			// receive: a good send still matches it.
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(1)
			return c.SendvType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Extent()))
		_, err := c.RecvType(dst, 1, ty, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendvFasterThanTyped pins the model: on the same workload the
// fused rendezvous completes in less virtual time than the staged
// derived-type send.
func TestSendvFasterThanTyped(t *testing.T) {
	const count = 1 << 17
	timeOf := func(send func(c *Comm, ty *datatype.Type, src buf.Block) error) float64 {
		var elapsed float64
		err := Run(2, Options{}, func(c *Comm) error {
			ty := everyOther(t, count)
			if c.Rank() == 0 {
				src := buf.Alloc(int(ty.Extent()))
				t0 := c.Wtime()
				if err := send(c, ty, src); err != nil {
					return err
				}
				if _, err := c.Recv(buf.Alloc(0), 1, 1); err != nil {
					return err
				}
				elapsed = c.Wtime() - t0
				return nil
			}
			dst := buf.Alloc(int(ty.Extent()))
			if _, err := c.RecvType(dst, 1, ty, 0, 0); err != nil {
				return err
			}
			return c.Send(buf.Alloc(0), 0, 1)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	typed := timeOf(func(c *Comm, ty *datatype.Type, src buf.Block) error {
		return c.SendType(src, 1, ty, 1, 0)
	})
	fused := timeOf(func(c *Comm, ty *datatype.Type, src buf.Block) error {
		return c.SendvType(src, 1, ty, 1, 0)
	})
	if !(fused < typed) {
		t.Fatalf("fused ping-pong %.3gs not under staged typed %.3gs", fused, typed)
	}
}

// TestIsendvTypeZeroStagingAsync pins the non-blocking fused variant:
// driving the fused rendezvous through IsendvType still draws zero
// pooled staging blocks and keeps fused attribution, and the payload
// lands exactly as the blocking SendvType delivers it.
func TestIsendvTypeZeroStagingAsync(t *testing.T) {
	const count = 1 << 16 // 512 KiB payload, past every eager limit
	poolBefore := buf.PoolStatsSnapshot()
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0x9E)
			req, err := c.IsendvType(src, 1, ty, 1, 6)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		dst := buf.Alloc(int(ty.Extent()))
		if _, err := c.RecvType(dst, 1, ty, 0, 6); err != nil {
			return err
		}
		want := buf.Alloc(int(ty.Extent()))
		want.FillPattern(0x9E)
		for i := 0; i < dst.Len(); i += 16 {
			if !bytes.Equal(dst.Bytes()[i:i+8], want.Bytes()[i:i+8]) {
				t.Fatalf("async fused layout byte %d differs", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := buf.PoolStatsSnapshot().Sub(poolBefore); d.Gets != 0 {
		t.Fatalf("async fused path drew %d pooled staging blocks, want 0 (%+v)", d.Gets, d)
	}
	d := datatype.PlanStatsSnapshot().Sub(planBefore)
	if d.FusedOps != 1 || d.StagedOps != 0 {
		t.Fatalf("async fused attribution fused=%d staged=%d, want 1/0", d.FusedOps, d.StagedOps)
	}
}

// TestIssendvTypeForcesRendezvous pins the synchronous non-blocking
// variant: an eager-sized payload still takes the fused handshake.
func TestIssendvTypeForcesRendezvous(t *testing.T) {
	const count = 64 // tiny, would be eager normally
	planBefore := datatype.PlanStatsSnapshot()
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(0x4B)
			if _, err := issendv(c, src, 1, ty, 1, 0).Wait(); err != nil {
				return err
			}
			if got := c.Counters().RendezvousSends; got != 1 {
				t.Errorf("IssendvType not rendezvous: %+v", c.Counters())
			}
			return nil
		}
		dst := buf.Alloc(int(ty.Extent()))
		_, err := c.RecvType(dst, 1, ty, 0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := datatype.PlanStatsSnapshot().Sub(planBefore); d.FusedOps != 1 {
		t.Fatalf("forced-rendezvous fused attribution %+v", d)
	}
}

// TestIrecvTypeOverlappedExchange pins the typed non-blocking receive:
// two ranks post IrecvType, fire IsendvType at each other, and both
// layouts arrive fused — the overlap shape a typed halo exchange uses.
func TestIrecvTypeOverlappedExchange(t *testing.T) {
	const count = 1 << 15
	err := Run(2, Options{}, func(c *Comm) error {
		ty := everyOther(t, count)
		peer := 1 - c.Rank()
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(byte(0x60 + c.Rank()))
		dst := buf.Alloc(int(ty.Extent()))
		rreq, err := c.IrecvType(dst, 1, ty, peer, 0)
		if err != nil {
			return err
		}
		sreq, err := c.IsendvType(src, 1, ty, peer, 0)
		if err != nil {
			return err
		}
		if _, err := rreq.Wait(); err != nil {
			return err
		}
		if _, err := sreq.Wait(); err != nil {
			return err
		}
		want := buf.Alloc(int(ty.Extent()))
		want.FillPattern(byte(0x60 + peer))
		for i := 0; i < dst.Len(); i += 16 {
			if !bytes.Equal(dst.Bytes()[i:i+8], want.Bytes()[i:i+8]) {
				t.Fatalf("rank %d overlapped layout byte %d differs", c.Rank(), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIrecvTypeMatchesSendType pins IrecvType against the classic
// staged typed send, including the status count.
func TestIrecvTypeMatchesSendType(t *testing.T) {
	const count = 1 << 12
	run2(t, func(c *Comm) error {
		ty := everyOther(t, count)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(3)
			return c.SendType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Extent()))
		req, err := c.IrecvType(dst, 1, ty, 0, 0)
		if err != nil {
			return err
		}
		st, err := req.Wait()
		if err != nil {
			return err
		}
		if st.Count != ty.Size() {
			t.Errorf("IrecvType status count %d, want %d", st.Count, ty.Size())
		}
		want := buf.Alloc(int(ty.Extent()))
		want.FillPattern(3)
		for i := 0; i < dst.Len(); i += 16 {
			if !bytes.Equal(dst.Bytes()[i:i+8], want.Bytes()[i:i+8]) {
				t.Fatalf("IrecvType layout byte %d differs", i)
			}
		}
		return nil
	})
}

// BenchmarkFusedRendezvous times one sendv exchange per iteration into
// a typed receive. The fused cell is the CI smoke for the zero-staging
// contract: any pooled staging or transit draw on the fused path fails
// it. The staged cell sends 8 internal chunks + 8 B into a receive one
// element longer, which the sender stages chunk by chunk.
func BenchmarkFusedRendezvous(b *testing.B) {
	b.Run("fused", func(b *testing.B) {
		before := buf.PoolStatsSnapshot()
		benchSendv(b, 1<<16, 1<<16)
		if d := buf.PoolStatsSnapshot().Sub(before); d.Gets != 0 {
			b.Fatalf("fused rendezvous path drew %d pooled staging blocks, want 0 (%+v)", d.Gets, d)
		}
	})
	const staged = 8*(512<<10)/8 + 1
	b.Run("staged", func(b *testing.B) { benchSendv(b, staged, staged+1) })
}

// benchSendv runs b.N two-rank worlds, each one SendvType of count
// every-other doubles into a typed receive of recvCount; both user
// buffers are allocated once, outside the timed loop.
func benchSendv(b *testing.B, count, recvCount int) {
	sendTy, recvTy := everyOther(b, count), everyOther(b, recvCount)
	src, dst := buf.Alloc(int(sendTy.Extent())), buf.Alloc(int(recvTy.Extent()))
	b.SetBytes(int64(count) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := Run(2, Options{}, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.SendvType(src, 1, sendTy, 1, 0)
			}
			_, err := c.RecvType(dst, 1, recvTy, 0, 0)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

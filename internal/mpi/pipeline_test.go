package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
)

// interleavedResized returns a committed layout whose repeated
// instances interleave without overlapping a single byte: an indexed
// pair of 4-byte blocks at byte offsets 0 and 20 whose extent is
// resized down to 8, so instance i contributes [8i, 8i+4) and
// [8i+20, 8i+24) — the two residues tile seamlessly across instances.
// Plans over it are not FusedDstSafe (extent < span, conservatively
// flagged), which is what forces the staged fallbacks the pipelined
// paths replace, while every byte still has exactly one writer — so
// the serial and pipelined schedules must agree bit for bit.
func interleavedResized(t testing.TB) *datatype.Type {
	t.Helper()
	idx, err := datatype.Indexed([]int{4, 4}, []int{0, 20}, datatype.Byte)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := datatype.Resized(idx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	return ty
}

// smallChunkProfile returns the generic profile with the internal
// chunk shrunk so rendezvous-sized tests split into many pipeline
// chunks, exercising the chunked drain, the slot ring of the staged
// scatter and the chunk-streamed hops.
func smallChunkProfile() *perfmodel.Profile {
	p := perfmodel.Generic()
	p.Mem.InternalChunk = 8 << 10
	p.Mem.PipelineDepth = 2
	return p
}

// exchangeTyped runs one typed exchange of (count × ty) from rank 0 to
// rank 1 under the given send call and returns the receiver's packed
// bytes (contiguous receive) and each rank's final virtual time.
func exchangeTyped(t *testing.T, prof *perfmodel.Profile, ty *datatype.Type, count int,
	send func(*Comm, buf.Block) error, typedRecv bool) (got []byte, sendTime float64) {
	t.Helper()
	need := ty.PackSize(count)
	span := typedSpan(ty, count)
	err := Run(2, Options{Profile: prof}, func(c *Comm) error {
		if c.Rank() == 0 {
			src := buf.Alloc(int(span))
			src.FillPattern(0x4D)
			if err := send(c, src); err != nil {
				return err
			}
			sendTime = c.Wtime()
			return nil
		}
		if typedRecv {
			dst := buf.Alloc(int(span))
			if _, err := c.RecvType(dst, count, ty, 0, 0); err != nil {
				return err
			}
			got = append([]byte(nil), dst.Bytes()...)
			return nil
		}
		dst := buf.Alloc(int(need))
		if _, err := c.Recv(dst, 0, 0); err != nil {
			return err
		}
		got = append([]byte(nil), dst.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, sendTime
}

// TestSendpTypeMatchesSendType pins the pipelined rendezvous
// byte-for-byte against the serial chunk loop — contiguous and typed
// receivers, gapped and interleaved-resized layouts — and requires the
// pipelined sender to finish strictly earlier on the virtual clock.
func TestSendpTypeMatchesSendType(t *testing.T) {
	prof := smallChunkProfile()
	layouts := map[string]*datatype.Type{
		"everyOther": everyOther(t, 1<<16), // 512 KiB payload
		"resized":    interleavedResized(t),
	}
	counts := map[string]int{"everyOther": 1, "resized": 1 << 14}
	for name, ty := range layouts {
		count := counts[name]
		for _, typedRecv := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/typedRecv=%v", name, typedRecv), func(t *testing.T) {
				serial, serialT := exchangeTyped(t, prof, ty, count, func(c *Comm, src buf.Block) error {
					return c.SendType(src, count, ty, 1, 0)
				}, typedRecv)
				piped, pipedT := exchangeTyped(t, prof, ty, count, func(c *Comm, src buf.Block) error {
					return c.SendpType(src, count, ty, 1, 0)
				}, typedRecv)
				if !bytes.Equal(serial, piped) {
					t.Fatal("pipelined rendezvous delivered different bytes than the serial chunk loop")
				}
				if pipedT >= serialT {
					t.Errorf("pipelined sender (%.3gs) not faster than serial (%.3gs)", pipedT, serialT)
				}
			})
		}
	}
}

// TestSendpTypeEagerMatchesSerial pins the eager fallback: under the
// eager limit the pipelined scheme is the serial typed send, to the
// byte and to the clock tick.
func TestSendpTypeEagerMatchesSerial(t *testing.T) {
	prof := smallChunkProfile()
	ty := everyOther(t, 1<<10) // 8 KiB payload, under the 64 KiB limit
	serial, serialT := exchangeTyped(t, prof, ty, 1, func(c *Comm, src buf.Block) error {
		return c.SendType(src, 1, ty, 1, 0)
	}, false)
	piped, pipedT := exchangeTyped(t, prof, ty, 1, func(c *Comm, src buf.Block) error {
		return c.SendpType(src, 1, ty, 1, 0)
	}, false)
	if !bytes.Equal(serial, piped) {
		t.Fatal("eager pipelined send differs from serial")
	}
	if pipedT != serialT {
		t.Errorf("eager pipelined time %.6g differs from serial %.6g", pipedT, serialT)
	}
}

// packUnpack is the byte oracle of one typed leg: src's (sendCount ×
// sendTy) packed, then unpacked as (recvCount × recvTy) into dst.
func packUnpack(t *testing.T, src buf.Block, sendCount int, sendTy *datatype.Type, dst buf.Block, recvCount int, recvTy *datatype.Type) {
	t.Helper()
	packed := buf.Alloc(int(sendTy.PackSize(sendCount)))
	if _, err := sendTy.Pack(src, sendCount, packed); err != nil {
		t.Fatal(err)
	}
	if _, err := recvTy.Unpack(packed, recvCount, dst); err != nil {
		t.Fatal(err)
	}
}

// bcastWorld runs BcastType of (count × ty) from the given root, whose
// buffer is rootBuf, at the given world size and returns each rank's
// resulting buffer.
func bcastWorld(t *testing.T, prof *perfmodel.Profile, ty *datatype.Type, count, root, size int, rootBuf buf.Block) [][]byte {
	t.Helper()
	span := typedSpan(ty, count)
	out := make([][]byte, size)
	err := Run(size, Options{Profile: prof}, func(c *Comm) error {
		b := buf.Alloc(int(span))
		if c.Rank() == root {
			buf.CopyAt(b, 0, rootBuf, 0, int(span))
		}
		if err := c.BcastType(b, count, ty, root); err != nil {
			return err
		}
		out[c.Rank()] = append([]byte(nil), b.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBcastPipelinedMatchesTree pins the broadcast byte-for-byte at
// every world size 1–8, over gapped and interleaved-resized layouts,
// roots 0 and last: every non-root rank holds the root's message
// packed and unpacked over a zeroed buffer — what the binomial tree's
// relays deliver — whichever schedule ran.
func TestBcastPipelinedMatchesTree(t *testing.T) {
	t.Parallel()
	prof := smallChunkProfile()
	layouts := map[string]*datatype.Type{
		"everyOther": everyOther(t, 1<<14), // 128 KiB payload > tree limit
		"resized":    interleavedResized(t),
	}
	counts := map[string]int{"everyOther": 1, "resized": 1 << 14}
	for name, ty := range layouts {
		count := counts[name]
		for size := 1; size <= 8; size++ {
			for _, root := range []int{0, size - 1} {
				t.Run(fmt.Sprintf("%s/size%d/root%d", name, size, root), func(t *testing.T) {
					span := int(typedSpan(ty, count))
					rootBuf := buf.Alloc(span)
					rootBuf.FillPattern(0x71)
					want := buf.Alloc(span)
					packUnpack(t, rootBuf, count, ty, want, count, ty)
					got := bcastWorld(t, prof, ty, count, root, size, rootBuf)
					for r := 0; r < size; r++ {
						w := want.Bytes()
						if r == root {
							w = rootBuf.Bytes()
						}
						if !bytes.Equal(got[r], w) {
							t.Fatalf("rank %d: bcast differs from the pack/unpack oracle", r)
						}
					}
				})
			}
		}
	}
}

// collSlotOff returns the byte offset of equal-count slot r.
func collSlotOff(r, count int, ty *datatype.Type) int64 {
	s := collSlots{ty: ty, count: count}
	off, _ := s.place(r)
	return off
}

// allgatherWorld runs AllgatherType over the given slot types and
// returns each rank's receive buffer.
func allgatherWorld(t *testing.T, prof *perfmodel.Profile, sendTy *datatype.Type, sendCount int, recvTy *datatype.Type, recvCount, size int) [][]byte {
	t.Helper()
	sendSpan := typedSpan(sendTy, sendCount)
	slotSpan := typedSpan(recvTy, recvCount)
	recvLen := collSlotOff(size-1, recvCount, recvTy) + slotSpan
	out := make([][]byte, size)
	err := Run(size, Options{Profile: prof}, func(c *Comm) error {
		send := buf.Alloc(int(sendSpan))
		send.FillPattern(byte(0x21 + c.Rank()))
		recv := buf.Alloc(int(recvLen))
		if err := c.AllgatherType(send, sendCount, sendTy, recv, recvCount, recvTy); err != nil {
			return err
		}
		out[c.Rank()] = append([]byte(nil), recv.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAllgatherPipelinedMatchesSerial pins the packed-segment ring
// byte-for-byte at world sizes 1–8: slot s of every rank holds rank
// s's packed contribution unpacked through the slot type. The receive
// slots use the interleaved-resized layout, which is exactly the
// not-FusedDstSafe shape that routes the ring through packed
// forwarding; its slots are byte-disjoint, so the unpack order does
// not matter.
func TestAllgatherPipelinedMatchesSerial(t *testing.T) {
	t.Parallel()
	prof := smallChunkProfile()
	const recvCount = 1 << 14 // 128 KiB per slot > tree limit
	recvTy := interleavedResized(t)
	sendTy := everyOther(t, recvCount) // same 128 KiB packed size
	for size := 1; size <= 8; size++ {
		t.Run(fmt.Sprintf("size%d", size), func(t *testing.T) {
			got := allgatherWorld(t, prof, sendTy, 1, recvTy, recvCount, size)
			slotSpan := typedSpan(recvTy, recvCount)
			want := buf.Alloc(int(collSlotOff(size-1, recvCount, recvTy) + slotSpan))
			for s := 0; s < size; s++ {
				send := buf.Alloc(int(typedSpan(sendTy, 1)))
				send.FillPattern(byte(0x21 + s))
				slot := want.Slice(int(collSlotOff(s, recvCount, recvTy)), int(slotSpan))
				packUnpack(t, send, 1, sendTy, slot, recvCount, recvTy)
			}
			for r := 0; r < size; r++ {
				if !bytes.Equal(got[r], want.Bytes()) {
					t.Fatalf("rank %d: allgather differs from the pack/unpack oracle", r)
				}
			}
		})
	}
}

// TestStagedScatterPipelinedMatches pins the chunked fused-sendv
// fallback (the sender-local staged emulation, pipelined through the
// slot ring) byte-for-byte. The typed receiver posts room for two
// instances and gets one, and that size mismatch is what routes the
// sendv to the staged scatter: its first instance holds the packed
// payload unpacked, the rest stays zero.
func TestStagedScatterPipelinedMatches(t *testing.T) {
	t.Parallel()
	prof := smallChunkProfile()
	const count = 1 << 14
	ty := everyOther(t, count)
	src := buf.Alloc(int(typedSpan(ty, 1)))
	src.FillPattern(0x5F)
	want := buf.Alloc(int(typedSpan(ty, 2)))
	packUnpack(t, src, 1, ty, want, 1, ty)
	var got []byte
	err := Run(2, Options{Profile: prof}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendvType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(typedSpan(ty, 2)))
		if _, err := c.RecvType(dst, 2, ty, 0, 0); err != nil {
			return err
		}
		got = append([]byte(nil), dst.Bytes()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("staged scatter differs from the pack/unpack oracle")
	}
}

// BenchmarkPipelined is the CI smoke for the pipelined rendezvous: a
// 4 MiB every-other-doubles exchange per iteration into a contiguous
// receive, pinned to (a) draw no pooled storage at all — the sender
// packs straight into the receiver's block — and (b) beat the serial
// chunk loop by at least 1.3x on the virtual clock.
func BenchmarkPipelined(b *testing.B) {
	const count = 1 << 19 // 4 MiB payload
	prof := perfmodel.Generic()
	exchange := func(pipelined bool) float64 {
		var sendTime float64
		err := Run(2, Options{Profile: prof, ColdCaches: true}, func(c *Comm) error {
			ty := everyOther(b, count)
			if c.Rank() == 0 {
				src := buf.Alloc(int(ty.Extent()))
				var err error
				if pipelined {
					err = c.SendpType(src, 1, ty, 1, 0)
				} else {
					err = c.SendType(src, 1, ty, 1, 0)
				}
				sendTime = c.Wtime()
				return err
			}
			dst := buf.Alloc(int(ty.Size()))
			_, err := c.Recv(dst, 0, 0)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		return sendTime
	}
	b.SetBytes(count * 8)
	var serialT, pipedT float64
	poolBefore := buf.PoolStatsSnapshot()
	for i := 0; i < b.N; i++ {
		pipedT = exchange(true)
	}
	poolDelta := buf.PoolStatsSnapshot().Sub(poolBefore)
	for i := 0; i < b.N; i++ {
		serialT = exchange(false)
	}
	b.StopTimer()
	if poolDelta.Gets != 0 || poolDelta.Puts != 0 {
		b.Fatalf("pipelined rendezvous drew %d and returned %d pooled blocks over %d iterations, want none",
			poolDelta.Gets, poolDelta.Puts, b.N)
	}
	if pipedT <= 0 || serialT/pipedT < 1.3 {
		b.Fatalf("pipelined rendezvous %.3gs vs serial %.3gs: speedup %.2fx, want >= 1.3x",
			pipedT, serialT, serialT/pipedT)
	}
	b.ReportMetric(serialT/pipedT, "serial/pipelined")
}

package mpi

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// selectiveProfile is the chaos profile with a 4 KiB internal chunk,
// so modest payloads span many chunks and the selective engine has
// something to be selective about.
func selectiveProfile() *perfmodel.Profile {
	p := perfmodel.Generic()
	p.Mem.InternalChunk = 4096
	return p
}

// selectiveVector is the canonical every-other-double layout packing
// 64 KiB (16 internal chunks of the selective profile).
func selectiveVector(t testing.TB) *datatype.Type {
	t.Helper()
	ty, err := datatype.Vector(8192, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	return ty
}

// runSelective drives one 0→1 typed rendezvous transfer under the
// given fault plan and returns the receiver's user bytes plus both
// ranks' counters. send selects the engine (SsendType, SendpType,
// SsendvType name strings).
func runSelective(t testing.TB, engine string, faults *simnet.FaultPlan) (recv []byte, c0, c1 simnet.Counters) {
	t.Helper()
	ty := selectiveVector(t)
	need := int(ty.TrueLB() + ty.TrueExtent())
	var mu0, mu1 simnet.Counters
	var got []byte
	err := Run(2, Options{Profile: selectiveProfile(), Faults: faults}, func(c *Comm) error {
		if c.Rank() == 0 {
			src := buf.Alloc(need)
			fillPat(src, 0, 1)
			var err error
			switch engine {
			case "SsendType":
				err = c.SsendType(src, 1, ty, 1, 7)
			case "SsendpType":
				err = ssendp(c, src, 1, ty, 1, 7)
			case "SsendvType":
				err = ssendv(c, src, 1, ty, 1, 7)
			default:
				t.Fatalf("unknown engine %s", engine)
			}
			mu0 = c.Counters()
			return err
		}
		dst := buf.Alloc(need)
		if _, err := c.RecvType(dst, 1, ty, 0, 7); err != nil {
			return err
		}
		got = append([]byte(nil), dst.Bytes()...)
		mu1 = c.Counters()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, mu0, mu1
}

// TestSelectiveRetransmitDifferential pins the tentpole's acceptance
// shape: a scripted single-chunk corruption of a 16-chunk rendezvous
// transfer recovers to the fault-free oracle while the fabric counters
// show only the damaged chunk retransmitted — not the whole transfer.
func TestSelectiveRetransmitDifferential(t *testing.T) {
	for _, engine := range []string{"SsendType", "SsendpType", "SsendvType"} {
		t.Run(engine, func(t *testing.T) {
			oracle, o0, _ := runSelective(t, engine, nil)
			if o0.Retries != 0 || o0.ChunkRetransmits != 0 {
				t.Fatalf("clean run retried: %+v", o0)
			}
			plan := &simnet.FaultPlan{
				Seed: 7,
				Scripted: []simnet.ScriptedFault{
					{Src: 0, Dst: 1, Seq: 3, Payload: true, Kind: simnet.FaultCorrupt},
				},
			}
			got, c0, c1 := runSelective(t, engine, plan)
			if !bytes.Equal(got, oracle) {
				t.Fatal("recovered bytes diverge from the fault-free oracle")
			}
			if c0.Corruptions != 1 {
				t.Fatalf("scripted corruption not injected: %+v", c0)
			}
			if c0.Retries != 1 {
				t.Fatalf("recovery took %d retries, want 1", c0.Retries)
			}
			if c0.ChunkRetransmits != 1 {
				t.Fatalf("retransmitted %d chunks, want exactly the damaged one", c0.ChunkRetransmits)
			}
			if c0.RetransmitBytes != 4096 {
				t.Fatalf("retransmitted %d bytes, want one 4096-byte chunk", c0.RetransmitBytes)
			}
			if c1.IntegrityRejects != 1 {
				t.Fatalf("receiver rejected %d attempts, want 1", c1.IntegrityRejects)
			}
		})
	}
}

// TestSelectiveNackNamesLastWorkersChunk scripts a corruption into the
// short tail chunk of a 4 MiB typed transfer, the first size whose
// verify fans out across the pack workers: at every worker count the
// tail lies in the last worker's share. On each engine — a staged
// receiver for SsendType and SsendpType, a fused one for SsendvType —
// the replay, which is the NACK bitmap, is exactly that chunk: one
// chunk of the tail's unique length, and the payload recovers.
func TestSelectiveNackNamesLastWorkersChunk(t *testing.T) {
	const chunk, tail = 512 << 10, 64 << 10
	const elems = (8*chunk + tail) / 8
	prof := perfmodel.Generic()
	prof.Mem.InternalChunk = chunk
	sendTy, err := datatype.Vector(elems, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	recvTy, err := datatype.Vector(elems/4, 4, 8, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ty := range []*datatype.Type{sendTy, recvTy} {
		if err := ty.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	src := buf.Alloc(int(typedSpan(sendTy, 1)))
	fillPat(src, 0, 1)
	stream, want := buf.Alloc(8*elems), buf.Alloc(int(typedSpan(recvTy, 1)))
	if _, err := sendTy.Pack(src, 1, stream); err != nil {
		t.Fatal(err)
	}
	if _, err := recvTy.Unpack(stream, 1, want); err != nil {
		t.Fatal(err)
	}
	for _, e := range selectiveSends {
		// Payload draw 8 is the ninth chunk, the tail, of the first attempt.
		faults := &simnet.FaultPlan{Seed: 31, Scripted: []simnet.ScriptedFault{
			{Src: 0, Dst: 1, Seq: 8, Payload: true, Kind: simnet.FaultCorrupt}}}
		dst := buf.Alloc(want.Len())
		var c0, c1 simnet.Counters
		err := Run(2, Options{Profile: prof, Faults: faults, WallLimit: 30 * time.Second}, func(c *Comm) error {
			if c.Rank() == 0 {
				err := e.send(c, src, 1, sendTy, 1, 7)
				c0 = c.Counters()
				return err
			}
			_, err := c.RecvType(dst, 1, recvTy, 0, 7)
			c1 = c.Counters()
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !bytes.Equal(dst.Bytes(), want.Bytes()) {
			t.Errorf("%s: recovered bytes diverge from the fault-free oracle", e.name)
		}
		if c0.Corruptions != 1 || c0.Retries != 1 || c1.IntegrityRejects != 1 {
			t.Errorf("%s: %d corruptions, %d retries, %d receiver rejects, want 1 each", e.name, c0.Corruptions, c0.Retries, c1.IntegrityRejects)
		}
		if c0.ChunkRetransmits != 1 || c0.RetransmitBytes != tail {
			t.Errorf("%s: replayed %d chunks of %d bytes, want the one %d-byte tail chunk", e.name, c0.ChunkRetransmits, c0.RetransmitBytes, tail)
		}
	}
}

// TestSelectiveRetransmitMultiChunk scripts damage into three distinct
// chunks of one attempt: one round of selective replay carries exactly
// those three chunks' bytes.
func TestSelectiveRetransmitMultiChunk(t *testing.T) {
	oracle, _, _ := runSelective(t, "SsendType", nil)
	plan := &simnet.FaultPlan{
		Seed: 11,
		Scripted: []simnet.ScriptedFault{
			{Src: 0, Dst: 1, Seq: 2, Payload: true, Kind: simnet.FaultCorrupt},
			{Src: 0, Dst: 1, Seq: 9, Payload: true, Kind: simnet.FaultTruncate},
			{Src: 0, Dst: 1, Seq: 15, Payload: true, Kind: simnet.FaultDrop},
		},
	}
	got, c0, _ := runSelective(t, "SsendType", plan)
	if !bytes.Equal(got, oracle) {
		t.Fatal("recovered bytes diverge from the fault-free oracle")
	}
	if c0.Retries != 1 {
		t.Fatalf("recovery took %d retries, want 1", c0.Retries)
	}
	if c0.ChunkRetransmits != 3 {
		t.Fatalf("retransmitted %d chunks, want the 3 damaged ones", c0.ChunkRetransmits)
	}
	if c0.RetransmitBytes != 3*4096 {
		t.Fatalf("retransmitted %d bytes, want 3 chunks' worth", c0.RetransmitBytes)
	}
}

// TestSelectiveDupSuppression scripts a duplicate fault on one chunk:
// the fabric redelivers it within the attempt, the receiver discards
// the extra copy, and no retransmission round runs at all.
func TestSelectiveDupSuppression(t *testing.T) {
	oracle, _, _ := runSelective(t, "SsendType", nil)
	plan := &simnet.FaultPlan{
		Seed: 13,
		Scripted: []simnet.ScriptedFault{
			{Src: 0, Dst: 1, Seq: 5, Payload: true, Kind: simnet.FaultDuplicate},
		},
	}
	got, c0, c1 := runSelective(t, "SsendType", plan)
	if !bytes.Equal(got, oracle) {
		t.Fatal("duplicated chunk corrupted the payload")
	}
	if c0.Duplicates != 1 {
		t.Fatalf("duplicate not injected: %+v", c0)
	}
	if c0.Retries != 0 || c0.ChunkRetransmits != 0 {
		t.Fatalf("duplicate triggered a retransmission: %+v", c0)
	}
	if c1.DupChunksSuppressed != 1 {
		t.Fatalf("receiver suppressed %d duplicate chunks, want 1", c1.DupChunksSuppressed)
	}
}

// TestSelectiveRetransmitDamagedRetry scripts damage into the same
// chunk twice — the initial attempt and its replay — and pins the
// two-round recovery: both rounds retransmit only that chunk.
func TestSelectiveRetransmitDamagedRetry(t *testing.T) {
	oracle, _, _ := runSelective(t, "SsendType", nil)
	plan := &simnet.FaultPlan{
		Seed: 17,
		Scripted: []simnet.ScriptedFault{
			{Src: 0, Dst: 1, Seq: 4, Payload: true, Kind: simnet.FaultCorrupt},
			// Draw 16 is the replayed chunk 4 on the second attempt.
			{Src: 0, Dst: 1, Seq: 16, Payload: true, Kind: simnet.FaultCorrupt},
		},
	}
	got, c0, c1 := runSelective(t, "SsendType", plan)
	if !bytes.Equal(got, oracle) {
		t.Fatal("recovered bytes diverge from the fault-free oracle")
	}
	if c0.Retries != 2 {
		t.Fatalf("recovery took %d retries, want 2", c0.Retries)
	}
	if c0.ChunkRetransmits != 2 || c0.RetransmitBytes != 2*4096 {
		t.Fatalf("retransmission attribution %d chunks / %d bytes, want 2 / %d",
			c0.ChunkRetransmits, c0.RetransmitBytes, 2*4096)
	}
	if c1.IntegrityRejects != 2 {
		t.Fatalf("receiver rejected %d attempts, want 2", c1.IntegrityRejects)
	}
}

// TestSelectiveVirtualPoisoned pins the virtual-payload contract the
// scale-out chaos harness rides: damage cannot materialise in a
// length-only transfer, so the chunk travels poisoned and the
// selective machinery replays exactly that chunk with zero byte
// traffic.
func TestSelectiveVirtualPoisoned(t *testing.T) {
	ty := selectiveVector(t)
	need := int(ty.TrueLB() + ty.TrueExtent())
	plan := &simnet.FaultPlan{
		Seed: 19,
		Scripted: []simnet.ScriptedFault{
			{Src: 0, Dst: 1, Seq: 6, Payload: true, Kind: simnet.FaultCorrupt},
		},
	}
	var c0 simnet.Counters
	err := Run(2, Options{Profile: selectiveProfile(), Faults: plan}, func(c *Comm) error {
		if c.Rank() == 0 {
			err := ssendv(c, buf.Virtual(need), 1, ty, 1, 3)
			c0 = c.Counters()
			return err
		}
		_, err := c.RecvType(buf.Virtual(need), 1, ty, 0, 3)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if c0.Retries != 1 || c0.ChunkRetransmits != 1 {
		t.Fatalf("poisoned virtual chunk not selectively replayed: %+v", c0)
	}
}

// selectiveSends are the three engines' forced-rendezvous sends.
var selectiveSends = []struct {
	name string
	send func(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error
}{
	{"SsendType", (*Comm).SsendType},
	{"SsendpType", ssendp},
	{"SsendvType", ssendv},
}

// runFaulted sends the selective vector once, 0→1, under a corruption
// scripted onto the first payload draw, into a typed or a contiguous
// receive; it returns both ranks' errors, the packed source stream and
// the plan-engine attribution of the run.
func runFaulted(t *testing.T, send func(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error,
	typedRecv bool, retry RetryPolicy) (errs [2]error, packed []byte, stats datatype.PlanStats) {
	t.Helper()
	ty, recvTy := selectiveVector(t), selectiveVector(t)
	src := buf.Alloc(int(typedSpan(ty, 1)))
	fillPat(src, 0, 1)
	stream := buf.Alloc(int(ty.PackSize(1)))
	if _, err := ty.Pack(src, 1, stream); err != nil {
		t.Fatal(err)
	}
	faults := &simnet.FaultPlan{Seed: 29, Scripted: []simnet.ScriptedFault{
		{Src: 0, Dst: 1, Seq: 0, Payload: true, Kind: simnet.FaultCorrupt}}}
	before := datatype.PlanStatsSnapshot()
	err := Run(2, Options{Profile: selectiveProfile(), Faults: faults, Retry: retry, WallLimit: 30 * time.Second}, func(c *Comm) error {
		switch {
		case c.Rank() == 0:
			errs[0] = send(c, src, 1, ty, 1, 7)
		case typedRecv:
			_, errs[1] = c.RecvType(buf.Alloc(src.Len()), 1, recvTy, 0, 7)
		default:
			_, errs[1] = c.Recv(buf.Alloc(stream.Len()), 0, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return errs, stream.Bytes(), datatype.PlanStatsSnapshot().Sub(before)
}

// TestSenderMakesNoChecksumPass pins where a faulted typed send reads
// its source: once, in the move that also folds the checksum. On every
// engine, under selective and under whole-transfer replay, the only
// standalone checksum passes of a run (PlanStats.ChecksumBytes) are the
// fused receiver's verifications of what landed in its layout — every
// other receiver sums a contiguous block — so a sender that went back
// to summing its source in a second strided read shows as extra bytes.
func TestSenderMakesNoChecksumPass(t *testing.T) {
	const n, chunk = 64 << 10, 4096
	for _, e := range selectiveSends {
		for _, whole := range []bool{false, true} {
			for _, typedRecv := range []bool{false, true} {
				errs, _, stats := runFaulted(t, e.send, typedRecv, RetryPolicy{WholeReplay: whole})
				if errs[0] != nil || errs[1] != nil {
					t.Fatalf("%s whole=%v typed=%v: %v / %v", e.name, whole, typedRecv, errs[0], errs[1])
				}
				var want int64
				if typedRecv && e.name == "SsendvType" {
					// The receiver verified the first attempt and the replay:
					// of the damaged chunk, or of everything.
					want = n + chunk
					if whole {
						want = 2 * n
					}
				}
				if stats.ChecksumBytes != want {
					t.Errorf("%s whole=%v typed=%v: %d bytes of standalone checksum passes, want %d (the receiver's)",
						e.name, whole, typedRecv, stats.ChecksumBytes, want)
				}
			}
		}
	}
}

// TestCleanDrainFoldsNoSums: an attempt claims checksums only under
// faults, so on a clean fabric the one drain of a real multi-chunk
// transfer is handed no sum storage and no span — a drain handed a span
// folds sums even with nowhere to put them — and nothing is replayed.
func TestCleanDrainFoldsNoSums(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		var got []srcSums
		st := stage{
			covered: 64 << 10,
			real:    true,
			drain:   func(ss srcSums) error { got = append(got, ss); return nil },
			resend:  func(lo, hi int64) error { t.Errorf("clean transfer replayed [%d,%d)", lo, hi); return nil },
			damage:  func(simnet.Fault, int64, int64) bool { return true },
		}
		if err := c.rdvSend(simnet.NewRendezvous(), 1, 0, st.covered, &st); err != nil {
			return err
		}
		if len(got) != 1 || got[0].span != 0 || got[0].sums != nil {
			t.Errorf("clean transfer drained with %+v, want one drain with no sums", got)
		}
		return nil
	})
}

// TestExhaustedBudgetIntegrityError: with no retry left, the damaged
// first attempt surfaces *IntegrityError on both ranks, and the
// receiver's carries the sender's claim — the true checksum of the
// source stream's damaged chunk (of the whole stream under
// whole-transfer replay), folded by the move — next to what it
// computed over the landed bytes.
func TestExhaustedBudgetIntegrityError(t *testing.T) {
	for _, e := range selectiveSends {
		for _, whole := range []bool{false, true} {
			for _, typedRecv := range []bool{false, true} {
				errs, packed, _ := runFaulted(t, e.send, typedRecv, RetryPolicy{MaxRetries: -1, WholeReplay: whole})
				claimed := packed[:4096]
				if whole {
					claimed = packed
				}
				var cs buf.Checksum
				cs.Write(claimed)
				var se, re *IntegrityError
				if !errors.As(errs[0], &se) || !errors.As(errs[1], &re) {
					t.Fatalf("%s whole=%v typed=%v: errors %v / %v, want *IntegrityError on both ranks", e.name, whole, typedRecv, errs[0], errs[1])
				}
				if re.Want != cs.Sum64() || re.Got == 0 || re.Got == re.Want || re.Attempts != 1 {
					t.Errorf("%s whole=%v typed=%v: receiver reports want %#x got %#x after %d attempts, true sum %#x",
						e.name, whole, typedRecv, re.Want, re.Got, re.Attempts, cs.Sum64())
				}
			}
		}
	}
}

// BenchmarkSelectiveRetransmit is the CI smoke of the satellite
// acceptance bound: a 1-damaged-chunk recovery must retransmit at most
// 2 chunks' worth of bytes (one damaged chunk plus slack for a short
// tail chunk), never the whole transfer.
func BenchmarkSelectiveRetransmit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plan := &simnet.FaultPlan{
			Seed: 23,
			Scripted: []simnet.ScriptedFault{
				{Src: 0, Dst: 1, Seq: 8, Payload: true, Kind: simnet.FaultCorrupt},
			},
		}
		_, c0, _ := runSelective(b, "SsendpType", plan)
		if c0.RetransmitBytes > 2*4096 {
			b.Fatalf("1-damaged-chunk recovery retransmitted %d bytes, budget %d",
				c0.RetransmitBytes, 2*4096)
		}
		if c0.RetransmitBytes == 0 {
			b.Fatal("recovery retransmitted nothing; selective path not engaged")
		}
	}
}

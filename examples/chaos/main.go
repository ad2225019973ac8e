// Chaos: run a typed ring exchange on a lossy fabric and watch the
// checksum/ACK/retry machinery recover — then exhaust the retry
// budget on purpose and catch the typed errors, including the
// deadlock detector's structured report.
//
// Run with:
//
//	go run ./examples/chaos
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"

	"repro/internal/buf"
)

func main() {
	prof, err := repro.ProfileByName("skx-impi")
	if err != nil {
		log.Fatal(err)
	}

	// A 4 MB every-other-double payload, the paper's canonical layout.
	ty, err := repro.TypeVector(1<<18, 1, 2, repro.TypeFloat64)
	if err != nil {
		log.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		log.Fatal(err)
	}

	// 1. A lossy ring that recovers. The plan injects 30% uniform
	// faults — drops, corruption, truncation, duplication, reordering,
	// delays — and the same seed reproduces the same fault sequence
	// every run. The received bytes are verified against per-transfer
	// checksums; damaged payloads are NACKed and retried with
	// exponential backoff.
	opts := repro.RunOptions{
		Profile: prof,
		Faults:  repro.UniformFaults(42, 0.3),
	}
	var elapsed float64
	var retries, rejects, chunkRetx, retxBytes, dups int64
	err = repro.Run(4, opts, func(c *repro.Comm) error {
		src := buf.Alloc(int(ty.Extent()))
		dst := buf.Alloc(int(ty.Extent()))
		right, left := (c.Rank()+1)%c.Size(), (c.Rank()+3)%c.Size()
		req, err := c.IrecvType(dst, 1, ty, left, 0)
		if err != nil {
			return err
		}
		if err := c.SsendType(src, 1, ty, right, 0); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			elapsed = c.Wtime()
		}
		ct := c.Counters()
		retries += ct.Retries
		rejects += ct.IntegrityRejects
		chunkRetx += ct.ChunkRetransmits
		retxBytes += ct.RetransmitBytes
		dups += ct.DupChunksSuppressed
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lossy ring delivered: %d ranks × %d B in %.3g s (%d retries, %d integrity rejections)\n",
		4, ty.Size(), elapsed, retries, rejects)
	// The repair traffic is selective: multi-chunk rendezvous transfers
	// checksum each chunk, the receiver NACKs a damage bitmap, and only
	// those chunks are re-packed and resent — whole-transfer replays
	// are reserved for single-chunk payloads.
	fmt.Printf("  selective repair: %d chunks (%d B) retransmitted instead of whole transfers, %d duplicates suppressed\n",
		chunkRetx, retxBytes, dups)

	// 2. Exhaust the budget. With retries disabled, the first drop is
	// terminal and surfaces as a typed DeliveryError instead of a hang.
	err = repro.Run(2, repro.RunOptions{
		Profile: prof,
		Faults:  repro.DropOnly(7, 1.0), // every delivery dropped
		Retry:   repro.RetryPolicy{MaxRetries: -1},
	}, func(c *repro.Comm) error {
		if c.Rank() == 0 {
			return c.Send(buf.Alloc(256), 1, 0)
		}
		_, err := c.Recv(buf.Alloc(256), 0, 0)
		return err
	})
	var de *repro.DeliveryError
	if errors.As(err, &de) && errors.Is(err, repro.ErrRetriesExhausted) {
		fmt.Printf("budget exhausted as typed error: %v\n", de)
	} else {
		log.Fatalf("expected DeliveryError, got %v", err)
	}

	// 3. A real deadlock. Both ranks receive first — the quiescence
	// detector notices that nothing is runnable and nothing blocked can
	// complete, and aborts with the stuck endpoints instead of hanging.
	err = repro.Run(2, repro.RunOptions{Profile: prof, DetectDeadlock: true}, func(c *repro.Comm) error {
		_, err := c.Recv(buf.Alloc(64), 1-c.Rank(), 3)
		return err
	})
	var dl *repro.DeadlockError
	if errors.As(err, &dl) {
		fmt.Printf("deadlock detected: %d stuck endpoints\n", len(dl.Report.Stuck))
		for _, b := range dl.Report.Stuck {
			fmt.Printf("  %v\n", b)
		}
	} else {
		log.Fatalf("expected DeadlockError, got %v", err)
	}

	// 4. A collective that fails with its leg named. With retries
	// disabled every rank's broadcast dies on the first drop, and the
	// CollectiveError carries which leg of the tree broke and toward
	// which peer — rank and edge, not just "bcast failed".
	err = repro.Run(4, repro.RunOptions{
		Profile: prof,
		Faults:  repro.DropOnly(11, 1.0),
		Retry:   repro.RetryPolicy{MaxRetries: -1},
	}, func(c *repro.Comm) error {
		dst := buf.Alloc(int(ty.Extent()))
		return c.BcastType(dst, 1, ty, 0)
	})
	var ce *repro.CollectiveError
	if errors.As(err, &ce) {
		if ce.Leg != "" {
			fmt.Printf("collective failed with attribution: op=%s rank=%d leg=%s peer=%d\n", ce.Op, ce.Rank, ce.Leg, ce.Peer)
		} else {
			fmt.Printf("collective failed: %v\n", ce)
		}
	} else {
		log.Fatalf("expected CollectiveError, got %v", err)
	}

	// 5. What the cost model says. The fault-adjusted recommendation
	// folds expected retries and backoff into the scheme ladder —
	// selective chunk recovery keeps the pipelined engines ahead where
	// whole-transfer replay used to sink them.
	fp := repro.FaultProfile{LegLossRate: 0.04, MaxRetries: 8, BaseBackoff: 20e-6, MaxBackoff: 2e-3}
	rec, err := repro.Recommend(repro.Query{Bytes: ty.Size(), Profile: prof, Faults: fp}, repro.GoalFastest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecommended under 4%% leg loss: %s\n  (%s)\n", rec.Scheme, rec.Reason)

	// 6. The same question for a collective. Tree hops replay whole
	// transfers on damage while the chunked pipelined ring recovers
	// selectively, so as the loss rate climbs the ladder flips from the
	// tree toward the ring.
	cq := repro.Query{Bytes: 16 << 20, Profile: prof, Ranks: 16, Faults: fp}
	crec, err := repro.Recommend(cq, repro.GoalFastest)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collective at 16 ranks × 16 MiB under 4%% leg loss: %s\n  (%s)\n", crec.Scheme, crec.Reason)
	cm, err := repro.Price(cq)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tree delivery %.4f vs ring delivery %.4f (ring gain %.2fx)\n",
		cm.DeliveryProb, cm.RingDeliveryProb, cm.Faulty.Ratio(repro.Sendv, repro.TypedPipelined))
}

package harness

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// JobMix drives many independent communicators over one fabric at
// once — the scale-out regime the sharded matcher exists for. The
// world splits into Jobs ring communicators (job j owns the world
// ranks with rank%Jobs == j), and every rank keeps InFlight typed
// transfers outstanding to its ring neighbours per round: InFlight
// IrecvType posts from the left neighbour, InFlight IsendvType posts
// to the right. A world barrier between the post phase and the drain
// phase makes the in-flight peak deterministic: every transfer of a
// round is posted before any is reaped, so the fabric holds
// Ranks×InFlight concurrent typed transfers across all Jobs
// communicators at the peak.
//
// Payloads are the canonical every-other-double layout, virtual
// (length-only) so O(10³)-rank mixes stay wall-time cheap: every
// protocol step, match, and virtual-clock cost happens; only the
// bytes are elided.
type JobMix struct {
	// Ranks is the world size; Jobs the communicator count (world
	// rank r serves job r%Jobs).
	Ranks, Jobs int
	// InFlight is the outstanding typed transfers per rank per round;
	// Rounds repeats the post/drain cycle.
	InFlight, Rounds int
	// Bytes is the per-transfer payload (data bytes of the layout);
	// default 1 MiB, past every profile's eager limit so transfers
	// ride the rendezvous engines.
	Bytes int64
	// Profile selects the installation; nil means perfmodel.Generic.
	Profile *perfmodel.Profile
	// NodeSize, when >0, overlays a node hierarchy on the profile
	// (blocks of NodeSize consecutive world ranks share a node, with
	// a NetLatency/10 intra-node discount unless the profile already
	// sets one).
	NodeSize int
	// WallLimit is the deadlock watchdog; zero means 2 minutes.
	WallLimit time.Duration

	// Faults, when non-nil, arms the fault-injecting fabric under the
	// whole mix — the chaos-at-scale regime (E21): every job's typed
	// transfers recover through the checksum/NACK/selective-retransmit
	// machinery while competing for the same sharded matcher.
	Faults *simnet.FaultPlan
	// Retry bounds the recovery machinery when Faults is armed; the
	// zero value selects mpi.DefaultRetryPolicy.
	Retry mpi.RetryPolicy
}

// RecoveryStats is the fault/recovery attribution of a mix, summed
// from every rank's fabric counters: what the injector did (drops,
// corruptions, truncations), what the recovery machinery paid for it
// (retries, integrity rejections), and how much of the repair traffic
// the selective chunk protocol confined (chunks and bytes
// retransmitted instead of whole transfers, duplicates suppressed).
type RecoveryStats struct {
	Drops, Corruptions, Truncations   int64
	Retries, IntegrityRejects         int64
	ChunkRetransmits, RetransmitBytes int64
	DupChunksSuppressed               int64
}

// Merge folds another run's attribution in (multi-trial studies sum
// their per-trial recovery work).
func (r *RecoveryStats) Merge(o RecoveryStats) {
	r.Drops += o.Drops
	r.Corruptions += o.Corruptions
	r.Truncations += o.Truncations
	r.Retries += o.Retries
	r.IntegrityRejects += o.IntegrityRejects
	r.ChunkRetransmits += o.ChunkRetransmits
	r.RetransmitBytes += o.RetransmitBytes
	r.DupChunksSuppressed += o.DupChunksSuppressed
}

// add folds one rank's counters in.
func (r *RecoveryStats) add(ct simnet.Counters) {
	r.Drops += ct.Drops
	r.Corruptions += ct.Corruptions
	r.Truncations += ct.Truncations
	r.Retries += ct.Retries
	r.IntegrityRejects += ct.IntegrityRejects
	r.ChunkRetransmits += ct.ChunkRetransmits
	r.RetransmitBytes += ct.RetransmitBytes
	r.DupChunksSuppressed += ct.DupChunksSuppressed
}

// JobMixResult is one mix's sustained-throughput measurement with the
// shard-contention attribution the scale study reports.
type JobMixResult struct {
	Ranks, Jobs, InFlight, Rounds int
	Bytes                         int64

	// Transfers is the completed typed transfer count; Elapsed the
	// slowest rank's virtual time; AggregateGBs the fabric-wide
	// payload rate Transfers×Bytes/Elapsed.
	Transfers    int64
	Elapsed      float64
	AggregateGBs float64
	// P50 and P99 summarise per-transfer completion times (post of
	// the round to that transfer's drain, seconds).
	P50, P99 float64
	// InFlightPeak is the high-water mark of concurrently posted,
	// not-yet-drained typed transfers across the whole fabric.
	InFlightPeak int64

	// Matching is the fabric's matching attribution for the run
	// (fresh fabric, so totals are the run's own): live shard queues
	// at the end, fast-path vs wildcard takes.
	Matching simnet.MatchStats
	// Pool is the block-pool counter delta over the run, including
	// per-shard contention splits.
	Pool buf.PoolStats

	// Recovery sums the per-rank fault and recovery counters; zero on
	// clean runs.
	Recovery RecoveryStats
}

// RunJobMix executes the mix and reports the sustained throughput.
func RunJobMix(m JobMix) (JobMixResult, error) {
	if m.Ranks < 2 {
		return JobMixResult{}, fmt.Errorf("harness: job mix needs at least 2 ranks, got %d", m.Ranks)
	}
	if m.Jobs < 1 {
		m.Jobs = 1
	}
	if m.Ranks/m.Jobs < 2 {
		return JobMixResult{}, fmt.Errorf("harness: %d ranks over %d jobs leaves rings under 2 ranks", m.Ranks, m.Jobs)
	}
	if m.InFlight < 1 {
		m.InFlight = 1
	}
	if m.Rounds < 1 {
		m.Rounds = 1
	}
	if m.Bytes <= 0 {
		m.Bytes = 1 << 20
	}
	if m.WallLimit == 0 {
		m.WallLimit = 2 * time.Minute
	}
	prof := perfmodel.Generic()
	if m.Profile != nil {
		p := *m.Profile
		prof = &p
	}
	if m.NodeSize > 0 {
		prof.Mem.NodeSize = m.NodeSize
		if prof.IntraNodeLatency == 0 {
			prof.IntraNodeLatency = prof.NetLatency / 10
		}
	}

	// The canonical every-other-double layout carrying m.Bytes of
	// data per transfer.
	elems := int(m.Bytes / 8)
	if elems < 1 {
		elems = 1
	}
	ty, err := datatype.Vector(elems, 1, 2, datatype.Float64)
	if err != nil {
		return JobMixResult{}, err
	}
	if err := ty.Commit(); err != nil {
		return JobMixResult{}, err
	}
	need := int(ty.TrueLB() + ty.TrueExtent())

	res := JobMixResult{
		Ranks: m.Ranks, Jobs: m.Jobs, InFlight: m.InFlight, Rounds: m.Rounds,
		Bytes: int64(elems) * 8,
	}
	var (
		inFlight, peak, transfers atomic.Int64
		elapsedMu                 sync.Mutex
		elapsed                   float64
		completions               = make([][]float64, m.Ranks)
	)
	poolBefore := buf.PoolStatsSnapshot()
	err = mpi.Run(m.Ranks, mpi.Options{Profile: prof, WallLimit: m.WallLimit, Faults: m.Faults, Retry: m.Retry}, func(c *mpi.Comm) error {
		job, err := c.Split(c.Rank()%m.Jobs, c.Rank())
		if err != nil {
			return err
		}
		right := (job.Rank() + 1) % job.Size()
		left := (job.Rank() - 1 + job.Size()) % job.Size()
		send := buf.Virtual(need)
		recvs := make([]buf.Block, m.InFlight)
		for i := range recvs {
			recvs[i] = buf.Virtual(need)
		}
		times := make([]float64, 0, m.Rounds*m.InFlight)
		for round := 0; round < m.Rounds; round++ {
			t0 := c.Wtime()
			rreqs := make([]*mpi.Request, m.InFlight)
			sreqs := make([]*mpi.Request, m.InFlight)
			for i := 0; i < m.InFlight; i++ {
				if rreqs[i], err = job.IrecvType(recvs[i], 1, ty, left, i); err != nil {
					return err
				}
			}
			for i := 0; i < m.InFlight; i++ {
				if sreqs[i], err = job.IsendvType(send, 1, ty, right, i); err != nil {
					return err
				}
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
			}
			// Every transfer of the round is posted fabric-wide before
			// any rank starts draining: the peak gauge reads the true
			// concurrent mix, not a scheduling accident.
			c.Barrier()
			for i := 0; i < m.InFlight; i++ {
				if _, err := rreqs[i].Wait(); err != nil {
					return err
				}
				times = append(times, c.Wtime()-t0)
			}
			for i := 0; i < m.InFlight; i++ {
				if _, err := sreqs[i].Wait(); err != nil {
					return err
				}
				inFlight.Add(-1)
				transfers.Add(1)
			}
		}
		c.Barrier()
		completions[c.Rank()] = times
		elapsedMu.Lock()
		if t := c.Wtime(); t > elapsed {
			elapsed = t
		}
		res.Recovery.add(c.Counters())
		elapsedMu.Unlock()
		if c.Rank() == 0 {
			res.Matching = c.MatchStats()
		}
		return nil
	})
	if err != nil {
		return JobMixResult{}, err
	}
	res.Pool = buf.PoolStatsSnapshot().Sub(poolBefore)
	res.Transfers = transfers.Load()
	res.InFlightPeak = peak.Load()
	res.Elapsed = elapsed
	if elapsed > 0 {
		res.AggregateGBs = float64(res.Transfers) * float64(res.Bytes) / elapsed / 1e9
	}
	var all []float64
	for _, ts := range completions {
		all = append(all, ts...)
	}
	sort.Float64s(all)
	res.P50 = stats.Quantile(all, 0.50)
	res.P99 = stats.Quantile(all, 0.99)
	return res, nil
}

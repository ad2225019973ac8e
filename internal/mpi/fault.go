package mpi

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// This file is the recovery half of the fault-injection subsystem: the
// typed error taxonomy, the retry policy, the checksum plumbing of the
// protocol paths, the package's one wait (await), and the quiescence
// (deadlock) detector that names stuck endpoints instead of hanging the
// run.

// Typed error sentinels; the structured errors below match them
// through errors.Is.
var (
	// ErrIntegrity marks a payload that failed checksum verification
	// with the retry budget exhausted.
	ErrIntegrity = errors.New("mpi: payload failed integrity verification")
	// ErrRetriesExhausted marks a send whose every attempt was lost or
	// damaged in flight.
	ErrRetriesExhausted = errors.New("mpi: retry budget exhausted")
	// ErrShortDelivery marks a message whose payload arrived shorter
	// than its envelope advertised (a truncation fault) with no retry
	// machinery armed to re-request it.
	ErrShortDelivery = simnet.ErrShortDelivery
	// ErrRequestInactive marks a Wait on a request that already
	// completed (double Wait).
	ErrRequestInactive = errors.New("mpi: request is not active")
)

// RequestStateError is the typed request-misuse error: a Wait on a
// request that already completed. Cause is the matching sentinel,
// ErrRequestInactive, so errors.Is keeps matching; Prior, when non-nil,
// is the error the request originally completed with, so a
// Wait-after-abort misuse still surfaces the abort reason it swallowed.
type RequestStateError struct {
	Op    string // "wait"
	Rank  int
	ID    int    // Request id
	State string // "finished", "aborted"
	Cause error
	Prior error
}

func (e *RequestStateError) Error() string {
	s := fmt.Sprintf("mpi: rank %d: %s on %s request #%d", e.Rank, e.Op, e.State, e.ID)
	if e.Prior != nil {
		s = fmt.Sprintf("%s (completed with: %v)", s, e.Prior)
	}
	return fmt.Sprintf("%s: %v", s, e.Cause)
}

// Unwrap exposes the sentinel to errors.Is/As.
func (e *RequestStateError) Unwrap() error { return e.Cause }

// DeliveryError is the typed error of a send whose retry budget ran
// out: every attempt was dropped or damaged in flight.
type DeliveryError struct {
	Op       string
	Rank     int
	Peer     int
	Tag      int
	Attempts int
	Last     simnet.FaultKind
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s to rank %d tag %d failed after %d attempts (last fault: %v): %v",
		e.Rank, e.Op, e.Peer, e.Tag, e.Attempts, e.Last, ErrRetriesExhausted)
}

// Is matches ErrRetriesExhausted.
func (e *DeliveryError) Is(target error) bool { return target == ErrRetriesExhausted }

// IntegrityError is the typed error of a rendezvous payload that never
// verified within the retry budget; both handshake sides return it.
type IntegrityError struct {
	Op       string
	Rank     int
	Peer     int
	Tag      int
	Attempts int
	Want     uint64
	Got      uint64
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("mpi: rank %d: %s with rank %d tag %d failed verification after %d attempts: %v",
		e.Rank, e.Op, e.Peer, e.Tag, e.Attempts, ErrIntegrity)
}

// Is matches ErrIntegrity.
func (e *IntegrityError) Is(target error) bool { return target == ErrIntegrity }

// DeadlockReport is the quiescence detector's structured finding: the
// stuck endpoints with their protocol states, sources, tags and
// blocked-since times.
type DeadlockReport struct {
	Stuck []simnet.BlockInfo
}

func (r DeadlockReport) String() string {
	if len(r.Stuck) == 0 {
		return "no stuck endpoints"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d stuck endpoint(s):", len(r.Stuck))
	for _, b := range r.Stuck {
		sb.WriteString("\n  ")
		sb.WriteString(b.String())
	}
	return sb.String()
}

// DeadlockError is the typed error every blocked operation returns
// after the quiescence detector proves the run can no longer make
// progress.
type DeadlockError struct {
	Report DeadlockReport
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("%v: %s", ErrDeadlock, e.Report)
}

// Is matches ErrDeadlock.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// CollectiveError wraps the failure of one leg of a collective with
// the operation, the reporting rank, and — when the failure is
// attributable to a specific transport leg — the peer rank and the
// topology role of that leg, so a failed leg surfaces as a typed
// error at every participant instead of deadlocking the tree/ring,
// and a chaos run can attribute the failure to the exact edge of the
// topology that lost it.
type CollectiveError struct {
	Op   string
	Rank int
	// Peer is the remote rank of the failed leg; -1 when the failure
	// happened outside an attributable point-to-point leg (argument
	// validation, local staging, a fabric-wide abort).
	Peer int
	// Leg names the topology role of the failed leg ("tree-parent",
	// "tree-child", "fan-in", "fan-out", "ring-send", "ring-recv",
	// "pairwise-send", "pairwise-recv", "intra-fan", "intra-gather",
	// "leader-fan"); empty when unknown.
	Leg string
	Err error
}

func (e *CollectiveError) Error() string {
	if e.Peer >= 0 && e.Leg != "" {
		return fmt.Sprintf("mpi: collective %s failed at rank %d (%s leg, peer %d): %v", e.Op, e.Rank, e.Leg, e.Peer, e.Err)
	}
	return fmt.Sprintf("mpi: collective %s failed at rank %d: %v", e.Op, e.Rank, e.Err)
}

// Unwrap exposes the leg's error to errors.Is/As.
func (e *CollectiveError) Unwrap() error { return e.Err }

// legFault carries the attribution of one failed collective transport
// leg — the peer rank and the topology role — from the collSend /
// collRecv / collIsend call sites up to wrapColl, which folds it into
// the CollectiveError.
type legFault struct {
	peer int
	leg  string
	err  error
}

func (e *legFault) Error() string { return e.err.Error() }
func (e *legFault) Unwrap() error { return e.err }

// legWrap tags a transport leg's failure with its peer and topology
// role; nil passes through.
func legWrap(peer int, leg string, err error) error {
	if err == nil {
		return nil
	}
	return &legFault{peer: peer, leg: leg, err: err}
}

// wrapColl tags a collective leg's failure; nil and already-tagged
// errors pass through. Leg attribution recorded at the transport call
// site (legFault) is folded into the CollectiveError.
func (c *Comm) wrapColl(op string, err error) error {
	if err == nil {
		return err
	}
	var ce *CollectiveError
	if errors.As(err, &ce) {
		return err
	}
	peer, leg := -1, ""
	var lf *legFault
	if errors.As(err, &lf) {
		peer, leg = lf.peer, lf.leg
	}
	return &CollectiveError{Op: op, Rank: c.rank, Peer: peer, Leg: leg, Err: err}
}

// collErr tags a collective leg's failure and, when the failure is a
// terminal fault-recovery error, propagates it to every participant by
// aborting the fabric: ranks waiting in other legs of the collective
// unwind with the same typed CollectiveError instead of deadlocking on
// the missing leg.
func (c *Comm) collErr(op string, err error) error {
	if err == nil {
		return nil
	}
	ce := c.wrapColl(op, err)
	if errors.Is(err, ErrRetriesExhausted) || errors.Is(err, ErrIntegrity) ||
		errors.Is(err, simnet.ErrShortDelivery) {
		c.fabric.Abort(ce)
	}
	return ce
}

// The modeled ACK-timeout backoff: the first retransmission round
// costs baseBackoff of virtual time, and each further round doubles it
// up to maxBackoff.
const (
	baseBackoff = vclock.Duration(20_000)    // 20µs
	maxBackoff  = vclock.Duration(2_000_000) // 2ms
)

// RetryPolicy bounds the recovery machinery: how many retransmissions
// a send may use. The zero value means DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxRetries is the retransmission budget per payload (attempts =
	// MaxRetries + 1). Negative disables retries entirely: the first
	// fault is terminal.
	MaxRetries int
	// WholeReplay disables selective chunk retransmission: every
	// damaged rendezvous attempt is verified against one checksum of
	// the whole covered stream and replayed as a whole transfer.
	// Chunking, checksumming, and every other cost stay identical, so
	// a run with this set is the controlled baseline the chaos-scale
	// study (E21) measures the selective protocol against.
	WholeReplay bool
}

// DefaultRetryPolicy survives the chaos suite's default fault rates:
// eight retransmissions starting at a 20µs backoff, capped at 2ms.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 8}
}

// FaultProfile prices this policy's recovery for the cost model on a
// fabric losing legLossRate of its delivery legs, with the backoff
// converted from virtual nanoseconds to seconds.
func (rp RetryPolicy) FaultProfile(legLossRate float64) memsim.FaultProfile {
	return memsim.FaultProfile{
		LegLossRate: legLossRate,
		MaxRetries:  rp.MaxRetries,
		BaseBackoff: float64(baseBackoff) / 1e9,
		MaxBackoff:  float64(maxBackoff) / 1e9,
	}
}

// normalized fills a zero retry budget with the default.
func (rp RetryPolicy) normalized() RetryPolicy {
	if rp.MaxRetries == 0 {
		rp.MaxRetries = DefaultRetryPolicy().MaxRetries
	} else if rp.MaxRetries < 0 {
		rp.MaxRetries = 0
	}
	return rp
}

// backoff returns the modeled retransmission delay before the given
// retry (1-based): exponential with a cap.
func backoff(retry int) vclock.Duration {
	d := baseBackoff
	for i := 1; i < retry && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// faultsOn reports whether this communicator's fabric has a fault plan
// armed — the single gate of every checksum/retry code path, so the
// clean path stays byte- and allocation-identical to the fault-free
// build.
func (c *Comm) faultsOn() bool { return c.faults }

// blockInfo builds the quiescence-detector record of a wait.
func (c *Comm) blockInfo(op string, peer, tag int) simnet.BlockInfo {
	return simnet.BlockInfo{
		Rank: c.endpoint(c.rank), Op: op, Ctx: c.ctx,
		Src: peer, Tag: tag, Since: c.clock.Now(),
	}
}

// await is the package's one blocking call: it parks the rank, or the
// request half, on its fabric endpoint until w is ready (simnet Await),
// registered with the quiescence detector as op on (peer, tag), and
// returns the fabric's abort, wrapped in simnet.ErrAborted, if that
// comes first.
func (c *Comm) await(op string, peer, tag int, w simnet.Waitable) error {
	return c.fabric.Await(c.blockInfo(op, peer, tag), w)
}

// awaitNotice waits for the next notice in one slot of a rendezvous
// handshake and takes it.
func awaitNotice[T any](c *Comm, op string, peer, tag int, s *simnet.Slot[T]) (T, error) {
	if err := c.await(op, peer, tag, s); err != nil {
		var zero T
		return zero, err
	}
	return s.Take(), nil
}

// eagerIntact verifies a matched eager envelope: in-flight error
// marks, corruption marks, advertised-vs-delivered length, and the
// sender's checksum when present.
func (c *Comm) eagerIntact(m *simnet.Message) bool {
	if m.Err != nil || m.Corrupt {
		return false
	}
	if int64(m.Payload.Len()) < m.Bytes && m.Bytes > 0 {
		return false
	}
	if m.HasSum && buf.ChecksumOf(m.Payload) != m.Sum {
		return false
	}
	return true
}

// discardEager rejects a damaged eager delivery: the transit copy is
// recycled and the receiver re-matches for the retransmission. Faulted
// deliveries never carry OnConsume (the Bsend path releases its region
// sender-side under faults), so nothing else fires here.
func (c *Comm) discardEager(m *simnet.Message) {
	c.fabric.NoteIntegrityReject(c.endpoint(c.rank))
	buf.PutPooled(m.Payload)
	m.Payload = buf.Block{}
}

// matchVerified matches a receive and, when faults are armed, discards
// damaged eager deliveries until an intact one (or a rendezvous
// envelope) arrives — the receiver half of the eager ACK/retry
// machinery. With faults off, a Message.Err attached by a raw fabric
// injection still surfaces through the completion path as a typed
// error.
func (c *Comm) matchVerified(src, tag int) (*simnet.Message, error) {
	m, err := c.matchFrom(src, tag)
	if err != nil {
		return nil, err
	}
	if !c.faultsOn() {
		return m, nil
	}
	for m.Kind == simnet.KindEager && !c.eagerIntact(m) {
		c.discardEager(m)
		// Re-match on the concrete damaged source: a wildcard receive
		// must not switch sources between a damaged attempt and its
		// retransmission.
		m, err = c.matchEndpoint(m.Src, m.Tag)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// eagerRetryStep decides, after an eager attempt's fault verdict,
// whether to retransmit: it charges the modeled ACK-timeout backoff
// and counts the retry, or returns the terminal typed error.
func (c *Comm) eagerRetryStep(attempt *int, op string, dest, tag int, f simnet.Fault) (bool, error) {
	if !f.NeedsResend() {
		return false, nil
	}
	if *attempt >= c.retry.MaxRetries {
		return false, &DeliveryError{Op: op, Rank: c.rank, Peer: dest, Tag: tag, Attempts: *attempt + 1, Last: f.Kind}
	}
	*attempt++
	c.fabric.NoteRetry(c.endpoint(c.rank))
	c.clock.Advance(backoff(*attempt))
	return true, nil
}

// rdvRecvVerify completes the receiver half of a rendezvous payload
// landing in dst (in fplan's layout for a fused receiver): it waits for
// each attempt's Done, verifies what landed against the sender's
// checksum claims, and ACKs or NACKs through the handshake's Ack
// slot until an attempt passes or the sender's budget runs out.
// Whole-transfer attempts verify [0,Bytes) as one chain
// (datatype.LandedSum) and NACK with ErrIntegrity. Chunked attempts
// (Done.Replay set) sum every chunk the attempt delivered and that is
// not yet accepted in one datatype.ChecksumChunks call — spread across
// the pack workers, each chunk one chain — and then only compare: they
// track which chunks have been accepted across attempts, suppress
// redelivered duplicates, and NACK a simnet.ChunkNack bitmap so the
// sender replays only the damaged chunks. It returns the accepted
// attempt's arrival and delivered size.
func (c *Comm) rdvRecvVerify(m *simnet.Message, dst buf.Block, fplan *datatype.Plan) (arrival vclock.Time, bytes int64, err error) {
	peer, tag := c.localRank(m.Src), m.Tag
	attempts := 0
	// accepted persists across attempts; damaged is one attempt's verdict,
	// cleared in place for the next. The sender copies a NACKed bitmap
	// before it sends the next RdvDone, and this rank does not touch it
	// again until that RdvDone has arrived, so the reuse is race-free.
	// check names the chunks an attempt sums, into sums.
	var accepted, damaged, check simnet.ChunkBitmap
	var sums []uint64
	for {
		done, err := awaitNotice(c, "rdv-done", peer, tag, &m.Rdv.Done)
		if err != nil {
			return done.Arrival, done.Bytes, err
		}
		attempts++
		if done.Err != nil {
			return done.Arrival, done.Bytes, done.Err
		}
		if !m.Acked {
			return done.Arrival, done.Bytes, nil
		}
		if r := done.Replay; r != nil {
			if accepted == nil {
				accepted, damaged, check, sums = verifyScratch(r.Chunks)
			}
			clear(damaged)
			plan, user, end := landing(dst, fplan, r.Covered)
			if done.HasSum && end > 0 {
				for k := range check {
					check[k] = r.Sent[k] &^ accepted[k] &^ r.PoisonedChunks[k]
				}
				datatype.ChecksumChunks(plan, user, end, r.ChunkSize, check, sums)
			}
			var want, got uint64
			for i := 0; i < r.Chunks; i++ {
				if !r.Sent.Get(i) {
					// Not in this attempt: damaged if still outstanding.
					if !accepted.Get(i) {
						damaged.Set(i)
					}
					continue
				}
				if accepted.Get(i) {
					// Redelivery of a chunk we already hold.
					c.fabric.NoteDupChunkSuppressed(c.endpoint(c.rank))
					continue
				}
				lo, _ := chunkSpan(i, r.ChunkSize, r.Covered)
				ok := !r.PoisonedChunks.Get(i)
				var sum uint64
				if ok && done.HasSum && lo < end {
					sum = sums[i]
					ok = sum == r.ChunkSums[i]
				}
				if !ok {
					damaged.Set(i)
					want, got = r.ChunkSums[i], sum
					continue
				}
				accepted.Set(i)
				if r.Dup.Get(i) {
					// The fabric delivered this chunk twice within the
					// attempt; the second copy is discarded.
					c.fabric.NoteDupChunkSuppressed(c.endpoint(c.rank))
				}
			}
			if !damaged.Any() {
				m.Rdv.Ack.Post(c.fabric, m.Src, nil)
				return done.Arrival, done.Bytes, nil
			}
			c.fabric.NoteIntegrityReject(c.endpoint(c.rank))
			m.Rdv.Ack.Post(c.fabric, m.Src, &simnet.ChunkNack{Damaged: damaged})
			if done.Final {
				return done.Arrival, done.Bytes, &IntegrityError{Op: "rdv-recv", Rank: c.rank, Peer: peer, Tag: tag,
					Attempts: attempts, Want: want, Got: got}
			}
			continue
		}
		ok := !done.Poisoned
		var got uint64
		if plan, user, end := landing(dst, fplan, done.Bytes); ok && done.HasSum && end > 0 {
			got = datatype.LandedSum(plan, user, 0, end)
			ok = got == done.Sum
		}
		if ok {
			m.Rdv.Ack.Post(c.fabric, m.Src, nil)
			return done.Arrival, done.Bytes, nil
		}
		c.fabric.NoteIntegrityReject(c.endpoint(c.rank))
		m.Rdv.Ack.Post(c.fabric, m.Src, ErrIntegrity)
		if done.Final {
			return done.Arrival, done.Bytes, &IntegrityError{Op: "rdv-recv", Rank: c.rank, Peer: peer, Tag: tag,
				Attempts: attempts, Want: done.Sum, Got: got}
		}
	}
}

// verifyScratch allocates, in one piece, a chunked receive's three
// bitmaps over n chunks and its n per-chunk sums.
func verifyScratch(n int) (accepted, damaged, check simnet.ChunkBitmap, sums []uint64) {
	words := simnet.ChunkWords(n)
	s := make([]uint64, 3*words+n)
	return s[:words:words], s[words : 2*words : 2*words], s[2*words : 3*words : 3*words], s[3*words:]
}

// landing is where the receiver verifies a rendezvous payload's first
// n stream bytes as they landed: in a fused receiver's layout dst
// through its plan fplan, otherwise in dst as the packed stream itself
// (plan nil). end is n clamped to what the receive holds, 0 when
// nothing can be verified (virtual or empty landing).
func landing(dst buf.Block, fplan *datatype.Plan, n int64) (plan *datatype.Plan, user buf.Block, end int64) {
	plan, user, end = fplan, dst, int64(dst.Len())
	if fplan != nil {
		end = fplan.Bytes()
	}
	if user.IsVirtual() {
		return plan, user, 0
	}
	return plan, user, min(n, end)
}

// FaultKind aliases keep protocol code free of simnet qualifiers at
// every damage site.
const (
	FaultCorrupt  = simnet.FaultCorrupt
	FaultTruncate = simnet.FaultTruncate
	FaultDrop     = simnet.FaultDrop
)

// runDetector starts the quiescence detector: when no registered
// goroutine is runnable, at least one is blocked, and no blocked wait
// could complete, the run is deadlocked — the fabric is aborted with a
// structured report naming the stuck ranks, tags and protocol states,
// and every blocked operation returns the typed DeadlockError. Returns
// a stop function.
func runDetector(fabric *simnet.Fabric) func() {
	stop := make(chan struct{})
	go func() {
		stuck, ok := fabric.WaitQuiesce(stop)
		if ok {
			if os.Getenv("MPI_DEBUG_STACKS") != "" {
				b := make([]byte, 1<<20)
				n := runtime.Stack(b, true)
				fmt.Fprintf(os.Stderr, "=== detector fired ===\n%s\n", b[:n])
			}
			fabric.Abort(&DeadlockError{Report: DeadlockReport{Stuck: stuck}})
		}
	}()
	return func() { close(stop) }
}

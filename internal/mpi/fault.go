package mpi

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/buf"
	"repro/internal/memsim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// This file is the recovery half of the fault-injection subsystem: the
// typed error taxonomy, the retry policy, the checksum plumbing of the
// protocol paths, the abort-aware handshake waits, and the
// quiescence (deadlock) detector that names stuck endpoints instead of
// hanging the run.

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
// terminal fault-recovery error on a tracked run, propagates it to
// every participant by aborting the fabric: ranks blocked in other
// legs of the collective unwind with the same typed CollectiveError
// instead of deadlocking on the missing leg.
func (c *Comm) collErr(op string, err error) error {
	if err == nil {
		return nil
	}
	ce := c.wrapColl(op, err)
	if c.fabric.Tracking() &&
		(errors.Is(err, ErrRetriesExhausted) || errors.Is(err, ErrIntegrity) ||
			errors.Is(err, simnet.ErrShortDelivery)) {
		c.fabric.Abort(ce)
	}
	return ce
}

// RetryPolicy bounds the recovery machinery: how many retransmissions
// a send may use and how the modeled ACK-timeout backoff grows. The
// zero value means DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxRetries is the retransmission budget per payload (attempts =
	// MaxRetries + 1). Negative disables retries entirely: the first
	// fault is terminal.
	MaxRetries int
	// BaseBackoff is the virtual-clock cost of the first
	// retransmission round (the modeled ACK-timeout/NACK turnaround);
	// it doubles per retry up to MaxBackoff.
	BaseBackoff vclock.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff vclock.Duration
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
	return RetryPolicy{MaxRetries: 8, BaseBackoff: 20_000, MaxBackoff: 2_000_000}
}

// FaultProfile prices this policy's recovery for the cost model on a
// fabric losing legLossRate of its delivery legs, with the backoff
// converted from virtual nanoseconds to seconds.
func (rp RetryPolicy) FaultProfile(legLossRate float64) memsim.FaultProfile {
	return memsim.FaultProfile{
		LegLossRate: legLossRate,
		MaxRetries:  rp.MaxRetries,
		BaseBackoff: float64(rp.BaseBackoff) / 1e9,
		MaxBackoff:  float64(rp.MaxBackoff) / 1e9,
	}
}

// normalized fills zero fields with the defaults.
func (rp RetryPolicy) normalized() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.MaxRetries == 0 {
		rp.MaxRetries = def.MaxRetries
	} else if rp.MaxRetries < 0 {
		rp.MaxRetries = 0
	}
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = def.BaseBackoff
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = def.MaxBackoff
	}
	return rp
}

// backoff returns the modeled retransmission delay before the given
// retry (1-based): exponential with a cap.
func (rp RetryPolicy) backoff(retry int) vclock.Duration {
	d := rp.BaseBackoff
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= rp.MaxBackoff {
			return rp.MaxBackoff
		}
	}
	if d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	return d
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

// abortErr surfaces the fabric's abort reason as the wait's error.
func (c *Comm) abortErrFor(op string) error {
	if err := c.fabric.AbortErr(); err != nil {
		return err
	}
	return fmt.Errorf("%s: %w", op, simnet.ErrAborted)
}

// chanClosed reports (non-blocking) whether ch is closed.
func chanClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// awaitMatch waits for the receiver half of the rendezvous handshake.
// Under tracking it registers with the quiescence detector and unwinds
// on fabric abort; on the clean path it is the plain channel receive it
// always was.
func (c *Comm) awaitMatch(m *simnet.Message, peer, tag int) (simnet.RdvMatch, error) {
	if !c.fabric.Tracking() {
		return m.AwaitMatch(), nil
	}
	// Readiness must stay true between consuming the event and
	// deregistering: the poster bumps the wake counter before the
	// channel send, so a descheduled waiter in that window still reads
	// as progress instead of fabricating a quiescent state.
	w0 := m.WakeSeq()
	release := c.fabric.EnterBlocked(c.blockInfo("rdv-match", peer, tag),
		func() bool { return len(m.Match) > 0 || m.WakeSeq() != w0 })
	defer release()
	select {
	case match := <-m.Match:
		return match, nil
	case <-c.fabric.AbortChan():
		return simnet.RdvMatch{}, c.abortErrFor("rdv-match")
	}
}

// awaitDone waits for the sender's payload-complete notice.
func (c *Comm) awaitDone(m *simnet.Message, peer, tag int) (simnet.RdvDone, error) {
	if !c.fabric.Tracking() {
		return m.AwaitDone(), nil
	}
	w0 := m.WakeSeq()
	release := c.fabric.EnterBlocked(c.blockInfo("rdv-done", peer, tag),
		func() bool { return len(m.Done) > 0 || m.WakeSeq() != w0 })
	defer release()
	select {
	case done := <-m.Done:
		return done, nil
	case <-c.fabric.AbortChan():
		return simnet.RdvDone{}, c.abortErrFor("rdv-done")
	}
}

// awaitAck waits for the receiver's per-attempt verdict.
func (c *Comm) awaitAck(m *simnet.Message, peer, tag int) (error, error) {
	if !c.fabric.Tracking() {
		return <-m.Ack, nil
	}
	w0 := m.WakeSeq()
	release := c.fabric.EnterBlocked(c.blockInfo("rdv-ack", peer, tag),
		func() bool { return len(m.Ack) > 0 || m.WakeSeq() != w0 })
	defer release()
	select {
	case ack := <-m.Ack:
		return ack, nil
	case <-c.fabric.AbortChan():
		return nil, c.abortErrFor("rdv-ack")
	}
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
	pol := c.retry
	if *attempt >= pol.MaxRetries {
		return false, &DeliveryError{Op: op, Rank: c.rank, Peer: dest, Tag: tag, Attempts: *attempt + 1, Last: f.Kind}
	}
	*attempt++
	c.fabric.NoteRetry(c.endpoint(c.rank))
	c.clock.Advance(pol.backoff(*attempt))
	return true, nil
}

// rdvRecvVerify completes the receiver half of a rendezvous payload
// landing in dst (in fd's layout for a fused receiver): it waits for
// each attempt's Done, verifies what landed against the sender's
// checksum claims (landedSum), and ACKs or NACKs through the
// handshake's Ack channel until an attempt passes or the sender's
// budget runs out. Whole-transfer attempts verify [0,Bytes) once and
// NACK with ErrIntegrity; chunked attempts (Done.Chunks > 0) verify per
// chunk, track which chunks have been accepted across attempts,
// suppress redelivered duplicates, and NACK a simnet.ChunkNack bitmap
// so the sender replays only the damaged chunks. It returns the
// accepted attempt's arrival and delivered size.
func (c *Comm) rdvRecvVerify(m *simnet.Message, dst buf.Block, fd *fusedDst) (arrival vclock.Time, bytes int64, err error) {
	peer, tag := c.localRank(m.Src), m.Tag
	attempts := 0
	// accepted persists across attempts; damaged is one attempt's verdict,
	// cleared in place for the next. The sender copies a NACKed bitmap
	// before it sends the next RdvDone, and this rank does not touch it
	// again until that RdvDone has arrived, so the reuse is race-free.
	var accepted, damaged simnet.ChunkBitmap
	for {
		done, err := c.awaitDone(m, peer, tag)
		if err != nil {
			return done.Arrival, done.Bytes, err
		}
		attempts++
		if done.Err != nil {
			return done.Arrival, done.Bytes, done.Err
		}
		if m.Ack == nil {
			return done.Arrival, done.Bytes, nil
		}
		if done.Chunks > 0 {
			if accepted == nil {
				accepted = simnet.NewChunkBitmap(done.Chunks)
				damaged = simnet.NewChunkBitmap(done.Chunks)
			}
			clear(damaged)
			var want, got uint64
			for i := 0; i < done.Chunks; i++ {
				if !done.Sent.Get(i) {
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
				lo, hi := chunkSpan(i, done.ChunkSize, done.Covered)
				ok := !done.PoisonedChunks.Get(i)
				var sum uint64
				if ok && done.HasSum {
					var checkable bool
					sum, checkable = landedSum(dst, fd, lo, hi)
					if checkable && sum != done.ChunkSums[i] {
						ok = false
					}
				}
				if !ok {
					damaged.Set(i)
					want, got = done.ChunkSums[i], sum
					continue
				}
				accepted.Set(i)
				if done.Dup.Get(i) {
					// The fabric delivered this chunk twice within the
					// attempt; the second copy is discarded.
					c.fabric.NoteDupChunkSuppressed(c.endpoint(c.rank))
				}
			}
			if !damaged.Any() {
				m.NoteWake()
				m.Ack <- nil
				return done.Arrival, done.Bytes, nil
			}
			c.fabric.NoteIntegrityReject(c.endpoint(c.rank))
			m.NoteWake()
			m.Ack <- &simnet.ChunkNack{Damaged: damaged}
			if done.Final {
				return done.Arrival, done.Bytes, &IntegrityError{Op: "rdv-recv", Rank: c.rank, Peer: peer, Tag: tag,
					Attempts: attempts, Want: want, Got: got}
			}
			continue
		}
		ok := !done.Poisoned
		var got uint64
		if ok && done.HasSum {
			var checkable bool
			got, checkable = landedSum(dst, fd, 0, done.Bytes)
			if checkable && got != done.Sum {
				ok = false
			}
		}
		if ok {
			m.NoteWake()
			m.Ack <- nil
			return done.Arrival, done.Bytes, nil
		}
		c.fabric.NoteIntegrityReject(c.endpoint(c.rank))
		m.NoteWake()
		m.Ack <- ErrIntegrity
		if done.Final {
			return done.Arrival, done.Bytes, &IntegrityError{Op: "rdv-recv", Rank: c.rank, Peer: peer, Tag: tag,
				Attempts: attempts, Want: done.Sum, Got: got}
		}
	}
}

// landedSum recomputes the checksum of packed-stream range [lo,hi) as it
// landed — through fd's plan in a fused receiver's layout, in dst
// otherwise — clamped to what the receive holds. The second result is
// false when nothing can be verified (virtual or empty landing).
func landedSum(dst buf.Block, fd *fusedDst, lo, hi int64) (uint64, bool) {
	var cs buf.Checksum
	if fd != nil {
		hi = min(hi, fd.need)
		if fd.user.IsVirtual() || hi <= lo {
			return 0, false
		}
		fd.plan.ChecksumRange(fd.user, lo, hi, &cs)
		return cs.Sum64(), true
	}
	hi = min(hi, int64(dst.Len()))
	if dst.IsVirtual() || hi <= lo {
		return 0, false
	}
	cs.Write(dst.Bytes()[lo:hi])
	return cs.Sum64(), true
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
		stuck, ok := fabric.WaitQuiesce(stop, 0)
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

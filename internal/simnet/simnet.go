// Package simnet is the simulated interconnect fabric under the MPI
// runtime: per-rank mailboxes with MPI matching semantics (source/tag,
// wildcards, pairwise FIFO order), eager and rendezvous message
// envelopes, and per-endpoint traffic counters.
//
// The fabric is purely mechanical: it moves byte blocks and virtual
// timestamps between rank goroutines and enforces matching order. All
// *pricing* (what an operation costs in virtual time) happens in the
// mpi layer using perfmodel/memsim; all *payload* semantics (datatypes,
// packing) happen in the datatype layer.
//
// # Sharded matching
//
// Each mailbox shards its unexpected-message queue per (communicator
// context, source): an incoming envelope lands in the queue keyed by
// its (Ctx, Src), and a receive posted for a specific source takes the
// O(1) fast path — one map lookup plus one per-queue mutex, so the n²
// (rank × rank) traffic of a large job never serialises on a mailbox-
// wide lock. Cross-queue arrival order is preserved by a per-mailbox
// ticket counter stamped at enqueue time (reorder faults enqueue at
// the front with negative tickets, so they still overtake everything
// queued, exactly like the legacy whole-mailbox prepend).
//
// Wildcard (AnySource) receives take a slow path: phase one scans
// every queue of the context, locking each briefly, and records the
// ticket of its first tag-matching envelope; phase two locks the queue
// with the lowest such ticket and re-selects, restarting the scan if
// the winner was emptied concurrently. Within the winning queue the
// lowest link-sequence number wins (pairwise FIFO, healing reorder
// faults), which reproduces the legacy single-scan matcher's order
// exactly — the property the randomized differential test in
// shard_test.go pins against the reference implementation.
//
// Every blocking wait parks at its endpoint's mailbox (Await,
// await.go): every enqueue or posted event wakes the waits parked there
// whose event is ready, and takes the mailbox's wait lock only when one
// is parked, so uncontended delivery is two atomic ops, not a mutex +
// broadcast.
package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/vclock"
)

// Wildcards for matching, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// Kind discriminates message envelopes.
type Kind int

// Envelope kinds.
const (
	// KindEager carries the full payload with its arrival time.
	KindEager Kind = iota
	// KindRendezvous is a ready-to-send notice; payload transfer
	// happens through the handshake slots after matching.
	KindRendezvous
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindEager:
		return "eager"
	case KindRendezvous:
		return "rendezvous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// RdvMatch is the receiver→sender half of the rendezvous handshake:
// when the receive was posted and where the payload should land.
type RdvMatch struct {
	// MatchTime is max(RTS arrival, receive post time) on the
	// receiver's clock.
	MatchTime vclock.Time
	// Dst is the receiver's buffer view the sender streams into.
	Dst buf.Block
	// FusedDst, when non-nil, is the receiver's compiled plan of its
	// non-contiguous user layout (a *datatype.Plan, owned by the mpi
	// layer; the fabric never inspects it). A fused-capable sender
	// scatters straight into the layout; Dst is then the raw user
	// block the plan describes, NOT a packed destination, and
	// non-fusing senders must consult the plan rather than streaming
	// packed bytes into Dst. A pointer in an interface allocates
	// nothing.
	FusedDst any
}

// RdvDone is the sender→receiver half: when the payload fully arrived
// and how many bytes were written. A receiver that exposed its layout
// through RdvMatch.FusedDst takes delivery in place — the sender
// always lands the payload in the layout (fused one-pass or its local
// staged equivalent), so no unpack follows. The chunked attempts'
// descriptor sits behind Replay, so the envelope that embeds an RdvDone
// (NewRendezvous) stays in a small size class.
type RdvDone struct {
	Arrival vclock.Time
	Bytes   int64
	Err     error

	// Sum is the sender's checksum of the payload's packed byte
	// stream, valid when HasSum: the receiver verifies what actually
	// landed against it and NACKs through the Ack slot on mismatch.
	Sum    uint64
	HasSum bool
	// Poisoned marks an attempt the sender already knows arrived
	// damaged but could not mechanically damage (virtual payloads,
	// checksum-less paths): the receiver must NACK it without
	// verifying.
	Poisoned bool
	// Final marks the sender's last attempt under its retry budget:
	// a NACK now becomes a permanent integrity error on both sides.
	Final bool

	// Replay, when non-nil, is the selective-retransmission
	// descriptor: the attempt is chunked, and each chunk carries its
	// own checksum and verdict. Only a fault-armed transfer of several
	// internal chunks has one.
	Replay *ChunkReplay
}

// Message is one envelope in a mailbox.
type Message struct {
	// Ctx is the communicator context: messages only match receives
	// posted on the same communicator, so split communicators cannot
	// intercept each other's traffic.
	Ctx  int
	Src  int
	Tag  int
	Kind Kind

	// Payload: for eager messages, a transit copy owned by the fabric
	// (or a virtual block); for rendezvous, unused.
	Payload buf.Block
	// Bytes is the payload size in bytes for either kind.
	Bytes int64

	// Arrival is when the payload (eager) or the RTS notice
	// (rendezvous) lands at the receiver, in virtual time.
	Arrival vclock.Time

	// Rdv is a rendezvous envelope's handshake (nil for eager). A
	// pointer, so fabric-level duplicate copies share one handshake.
	Rdv *Handshake

	// Seq is the link-order sequence number stamped by Deliver: the
	// injection index on the directed (Src → dst) link. Matching takes
	// the lowest sequence among queued candidates of a source, which
	// equals FIFO order on a clean run and heals reordering faults;
	// duplicate-fault copies share one Seq and are consumed once.
	Seq int64

	// Sum is the checksum of the payload's packed byte stream when
	// HasSum; eager receivers verify it before accepting delivery.
	Sum    uint64
	HasSum bool
	// Corrupt marks an eager payload the fabric damaged but could not
	// mechanically alter (virtual blocks carry no bytes): receivers
	// treat it exactly like a checksum mismatch.
	Corrupt bool

	// Packed marks payloads that were packed in user space, for the
	// Cray eager-limit artefact (perfmodel.PackedEagerFactor). (The
	// envelope's five flags sit together so they share one word.)
	Packed bool
	// Sendv marks a plan-driven fused rendezvous send (mpi.SendvType):
	// a typed receiver matching it may expose its user layout through
	// RdvMatch.FusedDst for the direct one-pass scatter instead of
	// allocating a packed staging buffer.
	Sendv bool
	// Acked marks a rendezvous whose receiver verifies every attempt
	// and answers it through the Ack slot; set when the fabric has a
	// fault plan armed, so a clean handshake is the classic
	// two-notice one.
	Acked bool

	// Err is a delivery error attached in flight (ErrShortDelivery for
	// truncation): it surfaces as a typed error from Recv/Wait when no
	// retry machinery is armed to re-request the payload.
	Err error

	// OnConsume, if non-nil, runs when the receiver matches the
	// message. The Bsend buffer manager uses it to release the
	// attached-buffer region.
	OnConsume func()

	// ticket is the mailbox-wide arrival order stamped at enqueue
	// time: positive and increasing for normal deliveries, negative
	// and decreasing for reorder-fault front insertions. Wildcard
	// matching compares tickets across the per-source queues to find
	// the envelope the legacy whole-mailbox scan would have seen
	// first.
	ticket int64
}

// rdvEnvelope is a rendezvous envelope and its handshake in one
// allocation.
type rdvEnvelope struct {
	m  Message
	hs Handshake
}

// NewRendezvous returns a rendezvous envelope with its handshake.
func NewRendezvous() *Message {
	e := &rdvEnvelope{m: Message{Kind: KindRendezvous}}
	e.m.Rdv = &e.hs
	return &e.m
}

// Counters aggregates per-endpoint traffic statistics. The tests use
// them to assert protocol behaviour (e.g. "this send was eager",
// "the derived-type send was chunked k times").
type Counters struct {
	EagerSends      int64
	RendezvousSends int64
	BytesInjected   int64
	BytesDelivered  int64
	MessagesMatched int64

	// Fault-injection attribution, counted against the sender (the
	// endpoint whose traffic was damaged) except IntegrityRejects,
	// which the verifying receiver counts.
	Drops            int64
	Corruptions      int64
	Truncations      int64
	Duplicates       int64
	Reorders         int64
	Delays           int64
	Retries          int64
	IntegrityRejects int64

	// Selective-retransmission attribution: chunk replays and their
	// bytes count against the sender; suppressed duplicate chunk
	// deliveries count against the receiver that discarded them.
	ChunkRetransmits    int64
	RetransmitBytes     int64
	DupChunksSuppressed int64
}

// rankCounters is the hot-path mirror of Counters: one cache-line-
// padded struct of atomics per rank, so concurrent senders never share
// a lock (or a line) when bumping their own statistics.
type rankCounters struct {
	eagerSends      atomic.Int64
	rendezvousSends atomic.Int64
	bytesInjected   atomic.Int64
	bytesDelivered  atomic.Int64
	messagesMatched atomic.Int64

	drops            atomic.Int64
	corruptions      atomic.Int64
	truncations      atomic.Int64
	duplicates       atomic.Int64
	reorders         atomic.Int64
	delays           atomic.Int64
	retries          atomic.Int64
	integrityRejects atomic.Int64

	chunkRetransmits    atomic.Int64
	retransmitBytes     atomic.Int64
	dupChunksSuppressed atomic.Int64

	// 16×8 B of counters fill exactly two 64 B lines; a counter added
	// here needs a pad up to the next whole line.
}

// snapshot loads a consistent-enough copy for reporting.
func (c *rankCounters) snapshot() Counters {
	return Counters{
		EagerSends:      c.eagerSends.Load(),
		RendezvousSends: c.rendezvousSends.Load(),
		BytesInjected:   c.bytesInjected.Load(),
		BytesDelivered:  c.bytesDelivered.Load(),
		MessagesMatched: c.messagesMatched.Load(),

		Drops:            c.drops.Load(),
		Corruptions:      c.corruptions.Load(),
		Truncations:      c.truncations.Load(),
		Duplicates:       c.duplicates.Load(),
		Reorders:         c.reorders.Load(),
		Delays:           c.delays.Load(),
		Retries:          c.retries.Load(),
		IntegrityRejects: c.integrityRejects.Load(),

		ChunkRetransmits:    c.chunkRetransmits.Load(),
		RetransmitBytes:     c.retransmitBytes.Load(),
		DupChunksSuppressed: c.dupChunksSuppressed.Load(),
	}
}

// MatchStats is the fabric-wide matching attribution: how many sharded
// queues exist and how the take traffic split between the O(1)
// specific-source fast path and the all-queue wildcard slow path. The
// scale harness reports it per cell so shard contention is visible.
type MatchStats struct {
	// Queues is the live (ctx, source) queue count across mailboxes.
	Queues int64
	// FastTakes counts specific-source matches (single queue lock).
	FastTakes int64
	// WildTakes counts AnySource matches (full context scan).
	WildTakes int64
}

// Sub returns the delta s - prev (Queues stays absolute).
func (s MatchStats) Sub(prev MatchStats) MatchStats {
	return MatchStats{
		Queues:    s.Queues,
		FastTakes: s.FastTakes - prev.FastTakes,
		WildTakes: s.WildTakes - prev.WildTakes,
	}
}

// Fabric connects n endpoints. It is safe for concurrent use by the n
// rank goroutines.
type Fabric struct {
	n        int
	boxes    []*mailbox
	group    *vclock.Group
	counters []rankCounters

	// faults, when non-nil, is the armed fault plan with its per-link
	// injection counters; SetFaultPlan arms it before any traffic.
	// An atomic pointer so PayloadFault/Deliver read it
	// without touching the registry mutex on every payload op.
	faults atomic.Pointer[faultState]

	// mu guards the cold-path registries only (communicator groups,
	// context allocation, the shared-object table) — never the
	// per-message hot path.
	mu      sync.Mutex
	groups  map[int]*vclock.Group // per-communicator sync groups, by ctx
	nextCtx int
	shared  map[string]interface{} // window state registry

	// quiescence-detector bookkeeping (see fault.go).
	tracking atomic.Bool
	blockMu  sync.Mutex
	running  int
	blockSeq int
	blocked  map[int]blockedRec

	// abort holds the first Abort's reason; nil while the fabric is live.
	abort atomic.Pointer[error]
}

// New creates a fabric with n endpoints.
func New(n int) *Fabric {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: fabric size %d", n))
	}
	f := &Fabric{n: n, group: vclock.NewGroup(n), counters: make([]rankCounters, n)}
	f.boxes = make([]*mailbox, n)
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	f.blocked = make(map[int]blockedRec)
	return f
}

// SetFaultPlan arms a fault plan on the fabric; nil disarms. Arm it
// before any traffic flows: the per-link injection counters start at
// the moment of the call. Arming also turns on mailbox deduplication
// (consumed-sequence tracking for duplicate faults).
func (f *Fabric) SetFaultPlan(p *FaultPlan) {
	if p == nil {
		f.faults.Store(nil)
		return
	}
	f.faults.Store(newFaultState(p))
	for _, b := range f.boxes {
		b.dedup.Store(true)
	}
}

// PayloadFault draws the fault verdict for the next rendezvous payload
// transfer on (src → dst) of n bytes. It returns FaultNone when no
// plan is armed (a single atomic load, no lock). Duplicate/reorder/
// delay make no sense for a handshake-synchronised stream, so they are
// folded into FaultNone.
func (f *Fabric) PayloadFault(src, dst int, n int64) Fault {
	fs := f.faults.Load()
	if fs == nil {
		return Fault{}
	}
	fault, _ := fs.next(src, dst, n, true)
	switch fault.Kind {
	case FaultDuplicate, FaultReorder, FaultDelay:
		fault = Fault{}
	}
	if fault.Kind != FaultNone {
		f.noteFault(src, fault.Kind)
	}
	return fault
}

// noteFault records a fault against the sender's counters.
func (f *Fabric) noteFault(src int, kind FaultKind) {
	c := &f.counters[src]
	switch kind {
	case FaultDrop:
		c.drops.Add(1)
	case FaultCorrupt:
		c.corruptions.Add(1)
	case FaultTruncate:
		c.truncations.Add(1)
	case FaultDuplicate:
		c.duplicates.Add(1)
	case FaultReorder:
		c.reorders.Add(1)
	case FaultDelay:
		c.delays.Add(1)
	}
}

// NoteRetry counts one protocol-level retransmission by src.
func (f *Fabric) NoteRetry(src int) {
	f.counters[src].retries.Add(1)
}

// NoteIntegrityReject counts one checksum-verification rejection at
// the receiving rank.
func (f *Fabric) NoteIntegrityReject(rank int) {
	f.counters[rank].integrityRejects.Add(1)
}

// GroupFor returns the synchronisation group of the communicator with
// the given context, creating it with the given size on first use.
// Every member of the communicator asks for the same ctx/size, so the
// first caller creates and the rest share.
func (f *Fabric) GroupFor(ctx, size int) *vclock.Group {
	if ctx == 0 {
		if size != f.n {
			panic(fmt.Sprintf("simnet: world group size mismatch: %d vs %d", size, f.n))
		}
		return f.group
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.groups == nil {
		f.groups = make(map[int]*vclock.Group)
	}
	g, ok := f.groups[ctx]
	if !ok {
		g = vclock.NewGroup(size)
		f.groups[ctx] = g
	} else if g.Size() != size {
		panic(fmt.Sprintf("simnet: ctx %d group size mismatch: have %d want %d", ctx, g.Size(), size))
	}
	return g
}

// AllocCtxBlock reserves n fresh communicator contexts and returns the
// first. Rank 0 of a Split allocates and broadcasts; contexts start at
// 1 because 0 is the world communicator.
func (f *Fabric) AllocCtxBlock(n int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextCtx == 0 {
		f.nextCtx = 1
	}
	first := f.nextCtx
	f.nextCtx += n
	return first
}

// Shared returns the object registered under key, creating it with
// create on first use. One-sided windows use this to share their
// per-window state among ranks: the creation key is deterministic
// (communicator context and a per-communicator sequence number), so
// every member resolves the same object.
func (f *Fabric) Shared(key string, create func() interface{}) interface{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shared == nil {
		f.shared = make(map[string]interface{})
	}
	v, ok := f.shared[key]
	if !ok {
		v = create()
		f.shared[key] = v
	}
	return v
}

// DropShared removes a registry entry (window free).
func (f *Fabric) DropShared(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.shared, key)
}

// Deliver enqueues an envelope at dst's mailbox, recording injection
// statistics against src, and returns the fault verdict the armed
// plan (if any) applied to the injection. The verdict is synchronous:
// a dropped envelope is simply not enqueued and the sender learns it
// immediately (the modeled ACK-timeout/backoff is the sender's clock
// advance, not a real-time wait); corrupted and truncated envelopes
// ARE enqueued, damaged, so receivers genuinely exercise their
// verification. Rendezvous (control) envelopes cannot be damaged in a
// meaningful way, so corrupt/truncate draws degrade to drops there.
func (f *Fabric) Deliver(dst int, m *Message) Fault {
	f.checkRank(dst)
	f.checkRank(m.Src)
	c := &f.counters[m.Src]
	switch m.Kind {
	case KindEager:
		c.eagerSends.Add(1)
	case KindRendezvous:
		c.rendezvousSends.Add(1)
	}
	c.bytesInjected.Add(m.Bytes)
	fs := f.faults.Load()

	if fs == nil {
		f.boxes[dst].put(m, false)
		return Fault{}
	}

	fault, seq := fs.next(m.Src, dst, m.Bytes, false)
	m.Seq = seq
	if m.Kind == KindRendezvous && (fault.Kind == FaultCorrupt || fault.Kind == FaultTruncate) {
		// A damaged RTS fails its link-level CRC and is discarded
		// whole: the sender sees a drop.
		fault = Fault{Kind: FaultDrop}
	}
	if fault.Kind != FaultNone {
		f.noteFault(m.Src, fault.Kind)
	}
	switch fault.Kind {
	case FaultDrop:
		// Never enqueued; recycle a pooled transit payload so the
		// sender's retransmission does not drift the pool balance.
		buf.PutPooled(m.Payload)
		m.Payload = buf.Block{}
		return fault
	case FaultCorrupt:
		if data := m.Payload.Bytes(); len(data) > 0 {
			data[int(fault.Offset)%len(data)] ^= 0xFF
		} else {
			// Virtual payloads carry no bytes to flip: mark instead.
			m.Corrupt = true
		}
	case FaultTruncate:
		keep := fault.Keep
		if keep > int64(m.Payload.Len()) {
			keep = int64(m.Payload.Len())
		}
		if m.Payload.IsVirtual() {
			m.Payload = buf.Virtual(int(keep))
		} else if m.Payload.Len() > 0 {
			// Truncate (not Slice): the shortened block keeps its pool
			// identity, so the receive completion's release still works.
			m.Payload = m.Payload.Truncate(int(keep))
		}
		m.Err = fmt.Errorf("%w: %d of %d bytes arrived", ErrShortDelivery, keep, m.Bytes)
	case FaultDelay:
		m.Arrival += vclock.Time(fault.Delay)
	}
	// The duplicate is copied before the original is queued: once queued,
	// the receiver may match and retire it concurrently.
	var dup *Message
	if fault.Kind == FaultDuplicate {
		d := *m
		dup = &d
	}
	f.boxes[dst].put(m, fault.Kind == FaultReorder)
	if dup != nil {
		f.boxes[dst].put(dup, false)
	}
	return fault
}

// Match is MatchOrAbort stamped at virtual time 0: on an aborted fabric
// it returns nil.
func (f *Fabric) Match(rank, ctx, src, tag int) *Message {
	m, _ := f.MatchOrAbort(rank, ctx, src, tag, 0)
	return m
}

// MatchOrAbort blocks until an envelope matching (src, tag) is
// available at rank's mailbox and removes it, or returns an error
// wrapping ErrAborted when the fabric aborts first. Matching preserves
// pairwise FIFO order: among queued candidates of the matched source,
// the lowest link-sequence number wins (equal to arrival order on a
// clean run). since stamps the wait's quiescence-detector record.
func (f *Fabric) MatchOrAbort(rank, ctx, src, tag int, since vclock.Time) (*Message, error) {
	f.checkRank(rank)
	b := f.boxes[rank]
	for {
		puts := b.puts.Load()
		if m := b.tryTake(ctx, src, tag); m != nil {
			c := &f.counters[rank]
			c.messagesMatched.Add(1)
			c.bytesDelivered.Add(m.Bytes)
			return m, nil
		}
		if err := f.await(BlockInfo{Rank: rank, Op: "recv", Ctx: ctx, Src: src, Tag: tag, Since: since}, nil, puts); err != nil {
			return nil, err
		}
	}
}

// CountersFor returns a snapshot of rank's counters.
func (f *Fabric) CountersFor(rank int) Counters {
	f.checkRank(rank)
	return f.counters[rank].snapshot()
}

// MatchStatsSnapshot sums the per-mailbox matching attribution.
func (f *Fabric) MatchStatsSnapshot() MatchStats {
	var s MatchStats
	for _, b := range f.boxes {
		b.qmu.RLock()
		s.Queues += int64(len(b.queues))
		b.qmu.RUnlock()
		s.FastTakes += b.fastTakes.Load()
		s.WildTakes += b.wildTakes.Load()
	}
	return s
}

func (f *Fabric) checkRank(r int) {
	if r < 0 || r >= f.n {
		panic(fmt.Sprintf("simnet: rank %d out of range [0,%d)", r, f.n))
	}
}

// qkey addresses one sharded queue: the (communicator, source) pair of
// its envelopes.
type qkey struct{ ctx, src int }

// srcQueue is one shard: the envelopes of a single (ctx, source) pair
// in ticket (arrival) order, with its own lock and consumed-sequence
// set. Specific-source receives touch exactly one srcQueue.
type srcQueue struct {
	mu   sync.Mutex
	msgs []*Message // ticket order: reorder-fault inserts at the front
	// consumed tracks delivered link sequences when dedup is armed
	// (duplicate faults): within one (ctx, src) shard the Seq alone
	// identifies the injection.
	consumed map[int64]struct{}
}

// selectLocked picks the envelope the matcher should deliver for tag,
// with q.mu held: the lowest link-sequence number among tag matches,
// earliest arrival breaking ties (the slice is ticket-ordered, so the
// first match is the earliest and is only displaced by a strictly
// lower Seq — exactly the legacy whole-mailbox rule restricted to one
// source). It also returns the ticket of the first (earliest) match,
// which the wildcard path compares across queues, and prunes consumed
// duplicate copies when dedup is on.
func (q *srcQueue) selectLocked(tag int, dedup bool) (best int, firstTicket int64) {
	if dedup && len(q.consumed) > 0 {
		kept := q.msgs[:0]
		for _, m := range q.msgs {
			if _, dup := q.consumed[m.Seq]; dup {
				continue
			}
			kept = append(kept, m)
		}
		for i := len(kept); i < len(q.msgs); i++ {
			q.msgs[i] = nil
		}
		q.msgs = kept
	}
	best = -1
	for i, m := range q.msgs {
		if tag != AnyTag && m.Tag != tag {
			continue
		}
		if best == -1 {
			best = i
			firstTicket = m.ticket
			continue
		}
		if m.Seq < q.msgs[best].Seq {
			best = i
		}
	}
	return best, firstTicket
}

// removeLocked takes the envelope at index i out of the shard, marking
// its sequence consumed when dedup is on. q.mu held.
func (q *srcQueue) removeLocked(i int, dedup bool) *Message {
	m := q.msgs[i]
	copy(q.msgs[i:], q.msgs[i+1:])
	q.msgs[len(q.msgs)-1] = nil
	q.msgs = q.msgs[:len(q.msgs)-1]
	if dedup {
		if q.consumed == nil {
			q.consumed = make(map[int64]struct{})
		}
		q.consumed[m.Seq] = struct{}{}
	}
	return m
}

// mailbox is one endpoint's unexpected-message store, sharded per
// (ctx, source). See the package comment for the matching design.
type mailbox struct {
	// qmu guards the queue registry (map + per-ctx index), NOT the
	// queues themselves: lookups take the read side, and a queue is
	// created at most once per (ctx, src), so steady-state delivery
	// never writes the registry.
	qmu    sync.RWMutex
	queues map[qkey]*srcQueue
	byCtx  map[int][]*srcQueue

	// ticket stamps normal arrivals (increasing from 1); fticket
	// stamps reorder-fault front insertions (decreasing from -1), so
	// a front-inserted envelope orders before everything already
	// queued and a later front insertion overtakes an earlier one —
	// the legacy whole-mailbox prepend semantics.
	ticket  atomic.Int64
	fticket atomic.Int64

	// parked lists the waits parked at this endpoint (Await), nparked
	// counts them; posters take waitMu only when nparked is non-zero,
	// so uncontended delivery never does. puts counts enqueues: a
	// receive that read it before its take failed parks only if no
	// envelope has arrived since.
	waitMu  sync.Mutex
	parked  *parker
	nparked atomic.Int64
	puts    atomic.Int64

	// dedup turns on consumed-sequence tracking (duplicate faults).
	dedup atomic.Bool

	// fast/wild split the take traffic for MatchStats attribution.
	fastTakes atomic.Int64
	wildTakes atomic.Int64
}

func newMailbox() *mailbox {
	b := &mailbox{
		queues: make(map[qkey]*srcQueue),
		byCtx:  make(map[int][]*srcQueue),
	}
	return b
}

// queueFor returns the (ctx, src) shard, creating it on first use.
func (b *mailbox) queueFor(ctx, src int) *srcQueue {
	k := qkey{ctx, src}
	b.qmu.RLock()
	q := b.queues[k]
	b.qmu.RUnlock()
	if q != nil {
		return q
	}
	b.qmu.Lock()
	defer b.qmu.Unlock()
	if q = b.queues[k]; q != nil {
		return q
	}
	q = &srcQueue{}
	b.queues[k] = q
	b.byCtx[ctx] = append(b.byCtx[ctx], q)
	return q
}

// lookup returns the (ctx, src) shard or nil; receives use it so a
// posted receive never materialises an empty queue.
func (b *mailbox) lookup(ctx, src int) *srcQueue {
	b.qmu.RLock()
	q := b.queues[qkey{ctx, src}]
	b.qmu.RUnlock()
	return q
}

// ctxQueues snapshots the shard list of a context. The returned slice
// prefix is immutable (creators append under the write lock), so the
// caller may iterate without the registry lock.
func (b *mailbox) ctxQueues(ctx int) []*srcQueue {
	b.qmu.RLock()
	qs := b.byCtx[ctx]
	b.qmu.RUnlock()
	return qs
}

func (b *mailbox) put(m *Message, front bool) {
	q := b.queueFor(m.Ctx, m.Src)
	q.mu.Lock()
	if front {
		m.ticket = b.fticket.Add(-1)
		q.msgs = append(q.msgs, nil)
		copy(q.msgs[1:], q.msgs)
		q.msgs[0] = m
	} else {
		m.ticket = b.ticket.Add(1)
		q.msgs = append(q.msgs, m)
	}
	q.mu.Unlock()
	b.puts.Add(1)
	b.wake(m, false)
}

// tryTakeFrom attempts a removal from one shard.
func (b *mailbox) tryTakeFrom(q *srcQueue, tag int) *Message {
	dedup := b.dedup.Load()
	q.mu.Lock()
	defer q.mu.Unlock()
	i, _ := q.selectLocked(tag, dedup)
	if i < 0 {
		return nil
	}
	return q.removeLocked(i, dedup)
}

// tryTakeAny is the wildcard slow path: phase one scans every shard of
// the context and records the ticket of its earliest tag match; phase
// two locks the queue with the lowest such ticket and re-selects,
// restarting if a concurrent taker emptied it. With a single taker
// (the differential-test regime) nothing moves between phases and the
// result equals the legacy whole-mailbox scan exactly; with racing
// wildcard takers the linearisation is whichever scan wins, which MPI
// leaves unspecified anyway.
func (b *mailbox) tryTakeAny(ctx, tag int) *Message {
	dedup := b.dedup.Load()
	for {
		var win *srcQueue
		var winTicket int64
		for _, q := range b.ctxQueues(ctx) {
			q.mu.Lock()
			i, ft := q.selectLocked(tag, dedup)
			q.mu.Unlock()
			if i < 0 {
				continue
			}
			if win == nil || ft < winTicket {
				win, winTicket = q, ft
			}
		}
		if win == nil {
			return nil
		}
		win.mu.Lock()
		i, _ := win.selectLocked(tag, dedup)
		if i >= 0 {
			m := win.removeLocked(i, dedup)
			win.mu.Unlock()
			return m
		}
		win.mu.Unlock()
		// The winner was drained between the phases; rescan.
	}
}

// tryTake removes the matching envelope, or returns nil.
func (b *mailbox) tryTake(ctx, src, tag int) *Message {
	if src != AnySource {
		q := b.lookup(ctx, src)
		if q == nil {
			return nil
		}
		m := b.tryTakeFrom(q, tag)
		if m != nil {
			b.fastTakes.Add(1)
		}
		return m
	}
	m := b.tryTakeAny(ctx, tag)
	if m != nil {
		b.wildTakes.Add(1)
	}
	return m
}

// peek returns the envelope tryTake would deliver, without removing
// it: the readiness of a receive.
func (b *mailbox) peek(ctx, src, tag int) *Message {
	dedup := b.dedup.Load()
	if src != AnySource {
		q := b.lookup(ctx, src)
		if q == nil {
			return nil
		}
		q.mu.Lock()
		defer q.mu.Unlock()
		i, _ := q.selectLocked(tag, dedup)
		if i < 0 {
			return nil
		}
		return q.msgs[i]
	}
	var best *Message
	var bestTicket int64
	for _, q := range b.ctxQueues(ctx) {
		q.mu.Lock()
		i, ft := q.selectLocked(tag, dedup)
		if i >= 0 && (best == nil || ft < bestTicket) {
			best, bestTicket = q.msgs[i], ft
		}
		q.mu.Unlock()
	}
	return best
}

// checkLive surfaces an abort in a wait.
func checkLive(f *Fabric) error {
	if err := f.AbortErr(); err != nil {
		return fmt.Errorf("%w: %w", ErrAborted, err)
	}
	return nil
}

package simnet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/vclock"
)

// This file is the fault-injection half of the fabric: a deterministic,
// seedable FaultPlan applied at injection time on the virtual clock,
// and the quiescence detector's bookkeeping (which goroutines are
// runnable, which are blocked, and on what).
//
// Faults are decided synchronously at Deliver/PayloadFault time from a
// counter-keyed hash of (seed, src, dst, sequence), never from Go
// scheduling or wall time, so a fault plan replays identically across
// runs — the property the chaos differential suite depends on.

// FaultKind classifies an injected fault.
type FaultKind int

// Fault kinds, in the order the per-link rates are evaluated.
const (
	FaultNone FaultKind = iota
	// FaultDrop discards the envelope (or payload transfer) entirely;
	// the sender must retransmit.
	FaultDrop
	// FaultCorrupt flips payload bytes in flight; checksums catch it.
	FaultCorrupt
	// FaultTruncate delivers only a prefix of the payload.
	FaultTruncate
	// FaultDuplicate enqueues the envelope twice with the same
	// sequence number; receivers deduplicate.
	FaultDuplicate
	// FaultReorder lets the envelope overtake earlier traffic on the
	// link; sequence-ordered matching heals it.
	FaultReorder
	// FaultDelay adds extra virtual latency to the arrival.
	FaultDelay
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultCorrupt:
		return "corrupt"
	case FaultTruncate:
		return "truncate"
	case FaultDuplicate:
		return "duplicate"
	case FaultReorder:
		return "reorder"
	case FaultDelay:
		return "delay"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injected fault verdict: what happened to a particular
// envelope or payload transfer.
type Fault struct {
	Kind FaultKind
	// Delay is the extra arrival latency for FaultDelay.
	Delay vclock.Duration
	// Offset is the corrupted byte's position for FaultCorrupt,
	// modulo the payload length.
	Offset int64
	// Keep is the surviving prefix length for FaultTruncate (strictly
	// less than the payload length for non-empty payloads).
	Keep int64
}

// NeedsResend reports whether the payload did not arrive intact: the
// sender must retransmit (after the receiver's NACK or a modeled ACK
// timeout) for the transfer to complete.
func (f Fault) NeedsResend() bool {
	return f.Kind == FaultDrop || f.Kind == FaultCorrupt || f.Kind == FaultTruncate
}

// LinkFaults is the per-link fault-rate vector. Rates are
// probabilities in [0,1], evaluated in the declared order on one
// uniform draw per injection, so their sum should stay ≤ 1.
type LinkFaults struct {
	Drop      float64
	Corrupt   float64
	Truncate  float64
	Duplicate float64
	Reorder   float64
	Delay     float64
}

// delaySpan is the extra virtual latency of a delay fault: long
// enough to reorder against in-flight traffic, short enough not to
// dominate a benchmark.
const delaySpan = vclock.Duration(50_000) // 50µs

// Total returns the summed fault probability of the link.
func (lf LinkFaults) Total() float64 {
	return lf.Drop + lf.Corrupt + lf.Truncate + lf.Duplicate + lf.Reorder + lf.Delay
}

// link identifies a directed fabric link.
type link struct{ src, dst int }

// ScriptedFault is a one-shot fault pinned to the k-th injection
// (0-based, counted separately for envelopes and payload transfers) on
// a directed link — the deterministic "lose exactly the third message"
// construction regression tests want.
type ScriptedFault struct {
	Src, Dst int
	// Seq is the 0-based injection index on the link the fault hits.
	Seq int64
	// Payload selects the payload-transfer counter (rendezvous data
	// movement) instead of the envelope counter.
	Payload bool
	Kind    FaultKind
}

// FaultPlan is a deterministic, seedable description of everything
// that goes wrong on the fabric. The zero value injects nothing.
type FaultPlan struct {
	// Seed keys the per-injection hash; two runs with equal plans see
	// identical faults.
	Seed uint64
	// Default applies to every link.
	Default LinkFaults
	// Scripted one-shot faults, applied on top of (before) the random
	// rates.
	Scripted []ScriptedFault
}

// UniformFaults builds a plan whose every link fails each injection
// with the given total probability, split evenly across drop, corrupt,
// truncate, duplicate, reorder and delay — the chaos study's knob.
func UniformFaults(seed uint64, rate float64) *FaultPlan {
	per := rate / 6
	return &FaultPlan{
		Seed: seed,
		Default: LinkFaults{
			Drop: per, Corrupt: per, Truncate: per,
			Duplicate: per, Reorder: per, Delay: per,
		},
	}
}

// DropOnly builds a plan that only drops, at the given per-injection
// probability — the CI smoke configuration.
func DropOnly(seed uint64, rate float64) *FaultPlan {
	return &FaultPlan{Seed: seed, Default: LinkFaults{Drop: rate}}
}

// splitmix64 is the counter hash behind every fault draw: a
// well-mixed, allocation-free PRF of the (seed, link, sequence) key.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform [0,1) float and a raw hash for the given
// injection, deterministic in the key alone.
func (p *FaultPlan) draw(src, dst int, seq int64, payload bool) (float64, uint64) {
	k := p.Seed
	k = splitmix64(k ^ uint64(src)<<32 ^ uint64(dst))
	salt := uint64(0)
	if payload {
		salt = 0x5bf03635
	}
	k = splitmix64(k ^ uint64(seq) ^ salt<<24)
	// 53 mantissa bits give a uniform float in [0,1).
	return float64(k>>11) / (1 << 53), splitmix64(k)
}

// scriptedKey indexes the one-shot fault table.
type scriptedKey struct {
	src, dst int
	seq      int64
	payload  bool
}

// faultState is the fabric's armed fault plan plus per-link injection
// counters. Counters live here (not in the plan) so one plan value can
// arm several fabrics.
type faultState struct {
	plan     *FaultPlan
	scripted map[scriptedKey]FaultKind

	mu      sync.Mutex
	envSeq  map[link]int64
	dataSeq map[link]int64
}

func newFaultState(p *FaultPlan) *faultState {
	fs := &faultState{
		plan:    p,
		envSeq:  make(map[link]int64),
		dataSeq: make(map[link]int64),
	}
	if len(p.Scripted) > 0 {
		fs.scripted = make(map[scriptedKey]FaultKind, len(p.Scripted))
		for _, s := range p.Scripted {
			fs.scripted[scriptedKey{s.Src, s.Dst, s.Seq, s.Payload}] = s.Kind
		}
	}
	return fs
}

// next draws the fault verdict for the next injection on (src,dst) and
// returns it with the injection's link-sequence number.
func (fs *faultState) next(src, dst int, bytes int64, payload bool) (Fault, int64) {
	fs.mu.Lock()
	seqs := fs.envSeq
	if payload {
		seqs = fs.dataSeq
	}
	seq := seqs[link{src, dst}]
	seqs[link{src, dst}] = seq + 1
	fs.mu.Unlock()

	kind := FaultNone
	var h uint64
	if k, ok := fs.scripted[scriptedKey{src, dst, seq, payload}]; ok {
		kind = k
		_, h = fs.plan.draw(src, dst, seq, payload)
	} else {
		lf := fs.plan.Default
		u, hh := fs.plan.draw(src, dst, seq, payload)
		h = hh
		switch {
		case u < lf.Drop:
			kind = FaultDrop
		case u < lf.Drop+lf.Corrupt:
			kind = FaultCorrupt
		case u < lf.Drop+lf.Corrupt+lf.Truncate:
			kind = FaultTruncate
		case u < lf.Drop+lf.Corrupt+lf.Truncate+lf.Duplicate:
			kind = FaultDuplicate
		case u < lf.Drop+lf.Corrupt+lf.Truncate+lf.Duplicate+lf.Reorder:
			kind = FaultReorder
		case u < lf.Total():
			kind = FaultDelay
		}
	}
	f := Fault{Kind: kind}
	switch kind {
	case FaultDelay:
		f.Delay = delaySpan
	case FaultCorrupt:
		if bytes > 0 {
			f.Offset = int64(h % uint64(bytes))
		}
	case FaultTruncate:
		if bytes > 0 {
			f.Keep = int64(h % uint64(bytes)) // strictly shorter
		}
	}
	return f, seq
}

// ErrShortDelivery marks a payload that arrived shorter than its
// envelope advertised (a truncation fault): the typed error carried by
// Message.Err into Recv/Wait.
var ErrShortDelivery = fmt.Errorf("simnet: payload truncated in flight")

// ErrAborted is wrapped by every fabric operation that returns after
// Abort tore the run down.
var ErrAborted = fmt.Errorf("simnet: fabric aborted")

// BlockInfo describes one blocked operation for the quiescence
// detector's report: who is stuck, on what, since when.
type BlockInfo struct {
	Rank int
	// Op is the protocol state: "recv", "rdv-match", "rdv-done",
	// "rdv-ack", "barrier", "wait", "isend-post" or "bsend-detach".
	Op       string
	Ctx      int
	Src, Tag int
	Since    vclock.Time
}

// String formats one stuck endpoint.
func (b BlockInfo) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rank %d blocked in %s", b.Rank, b.Op)
	if b.Op == "recv" {
		src := "any"
		if b.Src != AnySource {
			src = fmt.Sprint(b.Src)
		}
		tag := "any"
		if b.Tag != AnyTag {
			tag = fmt.Sprint(b.Tag)
		}
		fmt.Fprintf(&sb, " (ctx %d, src %s, tag %s)", b.Ctx, src, tag)
	} else if b.Src >= 0 || b.Tag >= 0 {
		fmt.Fprintf(&sb, " (ctx %d, peer %d, tag %d)", b.Ctx, b.Src, b.Tag)
	}
	fmt.Fprintf(&sb, " since %v", b.Since)
	return sb.String()
}

// blockedRec pairs the report info with the wait's event (a nil w is a
// receive; see Await). The event stays ready from the moment it exists
// until the waiter has deregistered, so a registered wait whose event
// has happened never reads as stuck.
type blockedRec struct {
	info BlockInfo
	w    Waitable
}

// Tracking reports whether worker/blocked accounting is armed (fault
// mode or an explicit deadlock detector). When false the bookkeeping
// is skipped, so the clean path pays nothing for it.
func (f *Fabric) Tracking() bool { return f.tracking.Load() }

// EnableTracking arms the worker/blocked accounting; called by the mpi
// layer before any rank goroutine starts.
func (f *Fabric) EnableTracking() { f.tracking.Store(true) }

// WorkerStart registers a runnable goroutine (a rank body or an async
// operation) with the quiescence detector; a no-op unless tracking is
// armed.
func (f *Fabric) WorkerStart() {
	if !f.Tracking() {
		return
	}
	f.blockMu.Lock()
	f.running++
	f.blockMu.Unlock()
}

// WorkerDone unregisters a goroutine registered with WorkerStart.
func (f *Fabric) WorkerDone() {
	if !f.Tracking() {
		return
	}
	f.blockMu.Lock()
	f.running--
	f.blockMu.Unlock()
}

// enterBlocked records that the calling (registered) goroutine is about
// to park on a wait described by info, completable exactly when w is
// ready, and returns the record's token for leaveBlocked.
func (f *Fabric) enterBlocked(info BlockInfo, w Waitable) int {
	f.blockMu.Lock()
	defer f.blockMu.Unlock()
	f.blockSeq++
	f.blocked[f.blockSeq] = blockedRec{info: info, w: w}
	f.running--
	return f.blockSeq
}

// leaveBlocked ends the wait enterBlocked registered as tok.
func (f *Fabric) leaveBlocked(tok int) {
	f.blockMu.Lock()
	delete(f.blocked, tok)
	f.running++
	f.blockMu.Unlock()
}

// Quiescent reports whether the run can no longer make progress: no
// registered goroutine is runnable, at least one is blocked, and no
// blocked wait's readiness predicate holds. It returns the stuck-
// endpoint report, sorted by rank.
func (f *Fabric) Quiescent() (stuck []BlockInfo, quiescent bool) {
	if !f.Tracking() {
		return nil, false
	}
	f.blockMu.Lock()
	defer f.blockMu.Unlock()
	if f.running != 0 || len(f.blocked) == 0 {
		return nil, false
	}
	for _, rec := range f.blocked {
		if f.boxes[rec.info.Rank].ready(rec.info, rec.w) {
			return nil, false
		}
	}
	stuck = make([]BlockInfo, 0, len(f.blocked))
	for _, rec := range f.blocked {
		stuck = append(stuck, rec.info)
	}
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].Rank != stuck[j].Rank {
			return stuck[i].Rank < stuck[j].Rank
		}
		return stuck[i].Op < stuck[j].Op
	})
	return stuck, true
}

// Abort tears the fabric down with err: every parked and future wait
// whose event has not happened returns an error wrapping ErrAborted and
// err. The first Abort wins.
func (f *Fabric) Abort(err error) {
	if err == nil {
		err = ErrAborted
	}
	f.abort.CompareAndSwap(nil, &err)
	for _, b := range f.boxes {
		b.wake(nil, true)
	}
}

// AbortErr returns the abort reason, or nil while the fabric is live:
// one atomic load, since every wait checks it.
func (f *Fabric) AbortErr() error {
	if p := f.abort.Load(); p != nil {
		return *p
	}
	return nil
}

// quiesceInterval is the real-time period at which WaitQuiesce polls.
const quiesceInterval = 500 * time.Microsecond

// WaitQuiesce polls the quiescence predicate from a detector
// goroutine: it blocks (in real time) until the run is quiescent or
// stop closes, returning the stuck report. Two consecutive positive
// snapshots, quiesceInterval apart, are required, so a momentary
// all-blocked handoff between cond broadcasts cannot fire it.
func (f *Fabric) WaitQuiesce(stop <-chan struct{}) ([]BlockInfo, bool) {
	tick := time.NewTicker(quiesceInterval)
	defer tick.Stop()
	streak := 0
	for {
		select {
		case <-stop:
			return nil, false
		case <-tick.C:
			stuck, ok := f.Quiescent()
			if !ok {
				streak = 0
				continue
			}
			streak++
			if streak >= 2 {
				return stuck, true
			}
		}
	}
}

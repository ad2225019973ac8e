package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buf"
)

// drainVerdicts replays n envelope injections on (src→dst) and returns
// the verdict kinds.
func drainVerdicts(plan *FaultPlan, src, dst, n int) []FaultKind {
	fs := newFaultState(plan)
	out := make([]FaultKind, n)
	for i := range out {
		f, seq := fs.next(src, dst, 256, false)
		if seq != int64(i) {
			panic("sequence drift")
		}
		out[i] = f.Kind
	}
	return out
}

func TestFaultPlanDeterministic(t *testing.T) {
	plan := UniformFaults(1234, 0.3)
	a := drainVerdicts(plan, 0, 1, 500)
	b := drainVerdicts(plan, 0, 1, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("injection %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Distinct links and distinct seeds draw distinct streams.
	c := drainVerdicts(plan, 1, 0, 500)
	d := drainVerdicts(UniformFaults(1235, 0.3), 0, 1, 500)
	same := func(x []FaultKind) bool {
		for i := range a {
			if a[i] != x[i] {
				return false
			}
		}
		return true
	}
	if same(c) || same(d) {
		t.Fatal("link or seed does not key the draw stream")
	}
}

func TestFaultPlanRates(t *testing.T) {
	const n = 20000
	faults := 0
	for _, k := range drainVerdicts(UniformFaults(7, 0.12), 0, 1, n) {
		if k != FaultNone {
			faults++
		}
	}
	got := float64(faults) / n
	if got < 0.09 || got > 0.15 {
		t.Fatalf("fault rate %.4f, want ≈0.12", got)
	}
}

func TestScriptedFaultHitsExactInjection(t *testing.T) {
	plan := &FaultPlan{
		Seed:     1,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 2, Kind: FaultDrop}},
	}
	ks := drainVerdicts(plan, 0, 1, 5)
	for i, k := range ks {
		want := FaultNone
		if i == 2 {
			want = FaultDrop
		}
		if k != want {
			t.Fatalf("injection %d = %v, want %v", i, k, want)
		}
	}
	// The payload counter is independent of the envelope counter.
	fs := newFaultState(plan)
	for i := 0; i < 5; i++ {
		if f, _ := fs.next(0, 1, 64, true); f.Kind != FaultNone {
			t.Fatalf("payload injection %d drew scripted envelope fault", i)
		}
	}
}

func TestTruncateAttachesShortDeliveryError(t *testing.T) {
	f := New(2)
	f.SetFaultPlan(&FaultPlan{
		Seed:     3,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 0, Kind: FaultTruncate}},
	})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Payload: buf.Alloc(64), Bytes: 64})
	m := f.Match(1, 0, 0, 0)
	if m == nil {
		t.Fatal("truncated message not delivered")
	}
	if !errors.Is(m.Err, ErrShortDelivery) {
		t.Fatalf("Err = %v, want ErrShortDelivery", m.Err)
	}
	if int64(m.Payload.Len()) >= m.Bytes {
		t.Fatalf("payload %d bytes not shortened below %d", m.Payload.Len(), m.Bytes)
	}
}

func TestDuplicateConsumedOnce(t *testing.T) {
	f := New(2)
	f.SetFaultPlan(&FaultPlan{
		Seed:     9,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 0, Kind: FaultDuplicate}},
	})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Payload: buf.Alloc(8), Bytes: 8})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Payload: buf.Alloc(8), Bytes: 8})
	// Two injections, one duplicated: three queued envelopes, but the
	// duplicate pair shares a sequence and must be consumed once.
	if m := f.Match(1, 0, 0, 0); m == nil || m.Seq != 0 {
		t.Fatalf("first match %+v", m)
	}
	if m := f.Match(1, 0, 0, 0); m == nil || m.Seq != 1 {
		t.Fatalf("second match %+v, want seq 1 (duplicate deduped)", m)
	}
	if m := f.boxes[1].peek(0, 0, 0); m != nil {
		t.Fatalf("stale duplicate still matchable: %+v", m)
	}
}

func TestReorderHealedBySequenceMatching(t *testing.T) {
	f := New(2)
	f.SetFaultPlan(&FaultPlan{
		Seed:     5,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 1, Kind: FaultReorder}},
	})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Bytes: 1})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Bytes: 2})
	// Injection 1 was queued at the front; sequence-ordered matching
	// must still deliver injection 0 first.
	if m := f.Match(1, 0, 0, 0); m.Seq != 0 {
		t.Fatalf("first match seq %d, want 0", m.Seq)
	}
	if m := f.Match(1, 0, 0, 0); m.Seq != 1 {
		t.Fatalf("second match seq %d, want 1", m.Seq)
	}
}

func TestDelayPushesArrival(t *testing.T) {
	f := New(2)
	f.SetFaultPlan(&FaultPlan{
		Seed:     8,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 0, Kind: FaultDelay}},
	})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Bytes: 1, Arrival: 100})
	if m := f.Match(1, 0, 0, 0); int64(m.Arrival) != 100+int64(DefaultDelaySpan) {
		t.Fatalf("arrival %d, want %d", m.Arrival, 100+int64(DefaultDelaySpan))
	}
}

func TestRendezvousDamageDegradesToDrop(t *testing.T) {
	f := New(2)
	f.SetFaultPlan(&FaultPlan{
		Seed:     2,
		Scripted: []ScriptedFault{{Src: 0, Dst: 1, Seq: 0, Kind: FaultCorrupt}},
	})
	m := &Message{Src: 0, Tag: 0, Kind: KindRendezvous, Bytes: 1 << 20}
	if v := f.Deliver(1, m); v.Kind != FaultDrop {
		t.Fatalf("damaged RTS verdict %v, want drop", v.Kind)
	}
	if f.Pending(1, 0, 0, 0) {
		t.Fatal("dropped RTS was enqueued")
	}
}

func TestQuiescenceDetection(t *testing.T) {
	f := New(2)
	f.EnableTracking()
	f.WorkerStart()
	f.WorkerStart()

	// Both workers runnable: not quiescent.
	if _, q := f.Quiescent(); q {
		t.Fatal("quiescent with runnable workers")
	}
	relA := f.EnterBlocked(BlockInfo{Rank: 0, Op: "recv", Src: 1, Tag: 7},
		func() bool { return false })
	if _, q := f.Quiescent(); q {
		t.Fatal("quiescent with one worker runnable")
	}
	ready := false
	relB := f.EnterBlocked(BlockInfo{Rank: 1, Op: "recv", Src: 0, Tag: 7},
		func() bool { return ready })
	stuck, q := f.Quiescent()
	if !q || len(stuck) != 2 {
		t.Fatalf("quiescent=%v stuck=%v", q, stuck)
	}
	if stuck[0].Rank != 0 || stuck[1].Rank != 1 {
		t.Fatalf("report not rank-sorted: %v", stuck)
	}

	// A wait that could complete suppresses the verdict.
	ready = true
	if _, q := f.Quiescent(); q {
		t.Fatal("quiescent with a ready wait")
	}
	ready = false
	if stuck, _ := f.WaitQuiesce(nil, time.Millisecond); len(stuck) != 2 {
		t.Fatalf("WaitQuiesce stuck=%v", stuck)
	}
	relA()
	relB()
	f.WorkerDone()
	f.WorkerDone()
}

func TestAbortFirstWins(t *testing.T) {
	f := New(2)
	first := errors.New("first")
	f.Abort(first)
	f.Abort(errors.New("second"))
	if !errors.Is(f.AbortErr(), first) {
		t.Fatalf("AbortErr = %v, want the first abort", f.AbortErr())
	}
	select {
	case <-f.AbortChan():
	default:
		t.Fatal("abort channel not closed")
	}
	if _, err := f.MatchOrAbort(0, 0, AnySource, AnyTag); !errors.Is(err, ErrAborted) {
		t.Fatalf("MatchOrAbort after abort = %v, want ErrAborted", err)
	}
}

// TestMatchOrAbortWakesOnAbort blocks a match on an empty mailbox and
// expects Abort to wake it with the abort reason.
func TestMatchOrAbortWakesOnAbort(t *testing.T) {
	f := New(2)
	done := make(chan error, 1)
	go func() {
		_, err := f.MatchOrAbort(0, 0, AnySource, AnyTag)
		done <- err
	}()
	reason := errors.New("torn down")
	f.Abort(reason)
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) || !errors.Is(err, reason) {
			t.Fatalf("err = %v, want ErrAborted wrapping the reason", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MatchOrAbort did not observe the abort")
	}
}

func TestMessageWakeCounter(t *testing.T) {
	m := &Message{}
	if m.WakeSeq() != 0 {
		t.Fatal("uninitialised wake counter not zero")
	}
	m.NoteWake() // inert without InitWake
	if m.WakeSeq() != 0 {
		t.Fatal("NoteWake counted without InitWake")
	}
	m.InitWake()
	m.NoteWake()
	dup := *m // fabric duplicates share the counter
	dup.NoteWake()
	if m.WakeSeq() != 2 || dup.WakeSeq() != 2 {
		t.Fatalf("wake counts diverged: %d vs %d", m.WakeSeq(), dup.WakeSeq())
	}
}

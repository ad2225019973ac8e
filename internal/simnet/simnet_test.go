package simnet

import (
	"sync"
	"testing"

	"repro/internal/buf"
)

func TestDeliverMatch(t *testing.T) {
	f := New(2)
	f.Deliver(1, &Message{Src: 0, Tag: 5, Kind: KindEager, Payload: buf.Alloc(8), Bytes: 8})
	m := f.Match(1, 0, 0, 5)
	if m.Src != 0 || m.Tag != 5 || m.Bytes != 8 {
		t.Fatalf("matched %+v", m)
	}
}

func TestMatchBlocksUntilDelivery(t *testing.T) {
	f := New(2)
	done := make(chan *Message)
	go func() { done <- f.Match(1, 0, 0, 1) }()
	select {
	case <-done:
		t.Fatal("Match returned before delivery")
	default:
	}
	f.Deliver(1, &Message{Src: 0, Tag: 1, Kind: KindEager, Bytes: 4})
	if m := <-done; m.Bytes != 4 {
		t.Fatalf("got %+v", m)
	}
}

func TestPairwiseFIFO(t *testing.T) {
	f := New(2)
	for i := int64(0); i < 10; i++ {
		f.Deliver(1, &Message{Src: 0, Tag: 3, Kind: KindEager, Bytes: i})
	}
	for i := int64(0); i < 10; i++ {
		if m := f.Match(1, 0, 0, 3); m.Bytes != i {
			t.Fatalf("message %d out of order: %+v", i, m)
		}
	}
}

func TestWildcardMatching(t *testing.T) {
	f := New(3)
	f.Deliver(2, &Message{Src: 1, Tag: 9, Kind: KindEager, Bytes: 1})
	if m := f.Match(2, 0, AnySource, AnyTag); m.Src != 1 || m.Tag != 9 {
		t.Fatalf("wildcard matched %+v", m)
	}
}

func TestContextIsolation(t *testing.T) {
	f := New(2)
	f.Deliver(1, &Message{Ctx: 7, Src: 0, Tag: 0, Kind: KindEager, Bytes: 77})
	f.Deliver(1, &Message{Ctx: 0, Src: 0, Tag: 0, Kind: KindEager, Bytes: 11})
	// A ctx-0 receive must skip the ctx-7 envelope even though it was
	// delivered first.
	if m := f.Match(1, 0, 0, 0); m.Bytes != 11 {
		t.Fatalf("context leak: %+v", m)
	}
	if m := f.Match(1, 7, 0, 0); m.Bytes != 77 {
		t.Fatalf("ctx-7 message lost: %+v", m)
	}
}

func TestTagSelectiveMatchLeavesOthers(t *testing.T) {
	f := New(2)
	f.Deliver(1, &Message{Src: 0, Tag: 1, Kind: KindEager, Bytes: 1})
	f.Deliver(1, &Message{Src: 0, Tag: 2, Kind: KindEager, Bytes: 2})
	if m := f.Match(1, 0, 0, 2); m.Bytes != 2 {
		t.Fatalf("tag-2 match got %+v", m)
	}
	if m := f.boxes[1].peek(0, 0, 1); m == nil || m.Bytes != 1 {
		t.Fatalf("tag-1 message lost")
	}
}

func TestCounters(t *testing.T) {
	f := New(2)
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindEager, Bytes: 100})
	f.Deliver(1, &Message{Src: 0, Tag: 0, Kind: KindRendezvous, Bytes: 200})
	f.Match(1, 0, 0, 0)
	c0 := f.CountersFor(0)
	if c0.EagerSends != 1 || c0.RendezvousSends != 1 || c0.BytesInjected != 300 {
		t.Fatalf("sender counters = %+v", c0)
	}
	c1 := f.CountersFor(1)
	if c1.MessagesMatched != 1 || c1.BytesDelivered != 100 {
		t.Fatalf("receiver counters = %+v", c1)
	}
}

func TestGroupForSharedAndSized(t *testing.T) {
	f := New(4)
	g1 := f.GroupFor(3, 2)
	g2 := f.GroupFor(3, 2)
	if g1 != g2 {
		t.Fatal("GroupFor did not share")
	}
	if f.GroupFor(0, 4) != f.group {
		t.Fatal("ctx 0 is not the world group")
	}
}

func TestGroupForSizeMismatchPanics(t *testing.T) {
	f := New(4)
	f.GroupFor(5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	f.GroupFor(5, 3)
}

func TestAllocCtxBlock(t *testing.T) {
	f := New(2)
	a := f.AllocCtxBlock(3)
	b := f.AllocCtxBlock(1)
	if a < 1 {
		t.Fatalf("ctx block starts at %d", a)
	}
	if b != a+3 {
		t.Fatalf("blocks overlap: %d then %d", a, b)
	}
}

func TestSharedRegistry(t *testing.T) {
	f := New(2)
	calls := 0
	mk := func() interface{} { calls++; return &struct{ x int }{42} }
	v1 := f.Shared("k", mk)
	v2 := f.Shared("k", mk)
	if v1 != v2 || calls != 1 {
		t.Fatalf("Shared created %d times", calls)
	}
	f.DropShared("k")
	f.Shared("k", mk)
	if calls != 2 {
		t.Fatal("DropShared did not clear the entry")
	}
}

func TestConcurrentDeliverMatch(t *testing.T) {
	f := New(2)
	const k = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < k; i++ {
			f.Deliver(1, &Message{Src: 0, Tag: i % 7, Kind: KindEager, Bytes: int64(i)})
		}
	}()
	seen := make([]bool, k)
	go func() {
		defer wg.Done()
		for i := 0; i < k; i++ {
			m := f.Match(1, 0, AnySource, AnyTag)
			seen[m.Bytes] = true
		}
	}()
	wg.Wait()
	for i, ok := range seen {
		if !ok {
			t.Fatalf("message %d lost", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindEager.String() != "eager" || KindRendezvous.String() != "rendezvous" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestBadRankPanics(t *testing.T) {
	f := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank accepted")
		}
	}()
	f.Deliver(5, &Message{Src: 0})
}

// TestRendezvousHandshake drives both representations of the
// rendezvous handshake through the same four calls: the channel pair of
// a tracked fabric (with its wake counter) and the one-allocation slot
// pair of an untracked one.
func TestRendezvousHandshake(t *testing.T) {
	for _, tracked := range []bool{false, true} {
		m := NewRendezvous(tracked)
		if m.Kind != KindRendezvous || (m.Match != nil) != tracked || (m.Done != nil) != tracked {
			t.Fatalf("tracked=%v: kind %v, Match %v, Done %v", tracked, m.Kind, m.Match, m.Done)
		}
		await := func() (RdvMatch, RdvDone) { return m.AwaitMatch(), m.AwaitDone() }
		if tracked {
			await = func() (RdvMatch, RdvDone) { return <-m.Match, <-m.Done }
		}
		go func() {
			m.PostMatch(RdvMatch{MatchTime: 7})
			m.PostDone(RdvDone{Bytes: 9})
		}()
		match, done := await()
		if match.MatchTime != 7 || done.Bytes != 9 {
			t.Errorf("tracked=%v: handshake carried %+v / %+v", tracked, match, done)
		}
		if want := map[bool]int64{false: 0, true: 2}[tracked]; m.WakeSeq() != want {
			t.Errorf("tracked=%v: wake count %d, want %d", tracked, m.WakeSeq(), want)
		}
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() { NewRendezvous(false) }); n != 1 {
		t.Errorf("an untracked rendezvous envelope is %v allocations, want 1", n)
	}
}

package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/buf"
)

// ---------------------------------------------------------------------
// Randomized differential: the sharded matcher must deliver the exact
// same envelope as the legacy whole-mailbox scan for the same put/take
// history — including wildcards, reorder front-puts, duplicate copies
// and dedup.
// ---------------------------------------------------------------------

func runDifferential(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shard := newMailbox()
	legacy := &legacyMailbox{}

	// Fault mode arms dedup and stamps link sequences (as Deliver does
	// under an armed plan); clean mode leaves Seq zero everywhere.
	faultMode := rng.Intn(2) == 0
	if faultMode {
		shard.dedup.Store(true)
		legacy.dedup = true
	}
	nctx := 1 + rng.Intn(3)
	nsrc := 1 + rng.Intn(6)
	ntag := 1 + rng.Intn(3)

	// Per-source link sequence counters, shared across contexts like
	// the real per-(src→dst) link counters.
	seq := make([]int64, nsrc)
	var id int64

	putBoth := func(m *Message, front bool) {
		shard.put(m, front)
		legacy.put(m, front)
	}

	for op := 0; op < 4000; op++ {
		if rng.Float64() < 0.55 {
			src := rng.Intn(nsrc)
			m := &Message{
				Ctx: rng.Intn(nctx), Src: src, Tag: rng.Intn(ntag),
				Bytes: id,
			}
			id++
			front := false
			if faultMode {
				m.Seq = seq[src]
				seq[src]++
				front = rng.Float64() < 0.15 // reorder fault
			}
			putBoth(m, front)
			if faultMode && rng.Float64() < 0.1 {
				dup := *m // duplicate fault: same Seq, consumed once
				putBoth(&dup, false)
			}
			continue
		}
		ctx := rng.Intn(nctx)
		src := rng.Intn(nsrc)
		if rng.Float64() < 0.35 {
			src = AnySource
		}
		tag := rng.Intn(ntag)
		if rng.Float64() < 0.35 {
			tag = AnyTag
		}
		if rng.Float64() < 0.2 {
			a, b := shard.peek(ctx, src, tag), legacy.peek(ctx, src, tag)
			if a != b {
				t.Fatalf("seed %d op %d: peek(ctx=%d src=%d tag=%d) sharded %+v legacy %+v",
					seed, op, ctx, src, tag, a, b)
			}
			continue
		}
		a, b := shard.tryTake(ctx, src, tag), legacy.tryTake(ctx, src, tag)
		if a != b {
			t.Fatalf("seed %d op %d: take(ctx=%d src=%d tag=%d) sharded %+v legacy %+v",
				seed, op, ctx, src, tag, a, b)
		}
	}

	// Drain both with pure wildcards per context: the full remaining
	// match order must agree.
	for ctx := 0; ctx < nctx; ctx++ {
		for i := 0; ; i++ {
			a, b := shard.tryTake(ctx, AnySource, AnyTag), legacy.tryTake(ctx, AnySource, AnyTag)
			if a != b {
				t.Fatalf("seed %d drain ctx %d step %d: sharded %+v legacy %+v", seed, ctx, i, a, b)
			}
			if a == nil {
				break
			}
		}
	}
	if got, want := shard.takes.Load(), legacy.takes.Load(); got != want {
		t.Fatalf("seed %d: takes diverged: sharded %d legacy %d", seed, got, want)
	}
}

func TestShardDifferentialRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runDifferential(t, seed)
		})
	}
}

// ---------------------------------------------------------------------
// Matching-order semantics through the public fabric API.
// ---------------------------------------------------------------------

// TestAnySourceArrivalOrder pins wildcard fairness: an AnySource
// receive takes the earliest-arrived envelope across all per-source
// shards, not whichever shard the map iterates first.
func TestAnySourceArrivalOrder(t *testing.T) {
	f := New(8)
	order := []int{3, 1, 5, 1, 7, 2, 3}
	for i, src := range order {
		f.Deliver(0, &Message{Src: src, Tag: 1, Kind: KindEager, Bytes: int64(i)})
	}
	for i, src := range order {
		m := f.Match(0, 0, AnySource, AnyTag)
		if m == nil || m.Src != src || m.Bytes != int64(i) {
			t.Fatalf("wildcard match %d: got %+v, want src %d id %d", i, m, src, i)
		}
	}
}

// TestAnyTagWithinSource pins that AnyTag on a specific source honours
// arrival order within the shard while a concrete tag skips past
// non-matching envelopes.
func TestAnyTagWithinSource(t *testing.T) {
	f := New(2)
	for i, tag := range []int{4, 9, 4} {
		f.Deliver(1, &Message{Src: 0, Tag: tag, Kind: KindEager, Bytes: int64(i)})
	}
	if m := f.Match(1, 0, 0, 9); m.Bytes != 1 {
		t.Fatalf("tag-9 match got id %d, want 1", m.Bytes)
	}
	if m := f.Match(1, 0, 0, AnyTag); m.Bytes != 0 {
		t.Fatalf("AnyTag match got id %d, want 0 (earliest)", m.Bytes)
	}
	if m := f.Match(1, 0, 0, AnyTag); m.Bytes != 2 {
		t.Fatalf("AnyTag match got id %d, want 2", m.Bytes)
	}
}

// TestCrossCommunicatorIsolation pins that sharded queues keep split
// communicators invisible to each other, including under wildcards.
func TestCrossCommunicatorIsolation(t *testing.T) {
	f := New(4)
	f.Deliver(0, &Message{Ctx: 1, Src: 2, Tag: 7, Kind: KindEager, Bytes: 100})
	f.Deliver(0, &Message{Ctx: 2, Src: 2, Tag: 7, Kind: KindEager, Bytes: 200})
	f.Deliver(0, &Message{Ctx: 1, Src: 3, Tag: 7, Kind: KindEager, Bytes: 101})

	if m := f.boxes[0].peek(3, AnySource, AnyTag); m != nil {
		t.Fatalf("ctx 3 sees foreign traffic: %+v", m)
	}
	if m := f.Match(0, 2, AnySource, AnyTag); m.Bytes != 200 {
		t.Fatalf("ctx 2 wildcard got id %d, want 200", m.Bytes)
	}
	if m := f.Match(0, 1, AnySource, AnyTag); m.Bytes != 100 {
		t.Fatalf("ctx 1 wildcard got id %d, want 100 (earliest in ctx)", m.Bytes)
	}
	if m := f.Match(0, 1, 3, 7); m.Bytes != 101 {
		t.Fatalf("ctx 1 src 3 got id %d, want 101", m.Bytes)
	}
}

// TestFrontPutOvertakes pins the reorder-fault semantics on the
// sharded queues: a front insertion orders before everything queued,
// and a later front insertion overtakes an earlier one — the legacy
// whole-mailbox prepend behaviour via negative tickets.
func TestFrontPutOvertakes(t *testing.T) {
	b := newMailbox()
	mk := func(src int, id int64) *Message { return &Message{Src: src, Tag: 1, Bytes: id} }
	b.put(mk(0, 0), false)
	b.put(mk(1, 1), false)
	b.put(mk(2, 2), true) // reorder: jumps the queue
	b.put(mk(0, 3), true) // later reorder: jumps further
	want := []int64{3, 2, 0, 1}
	for i, id := range want {
		m := b.tryTake(0, AnySource, AnyTag)
		if m == nil || m.Bytes != id {
			t.Fatalf("take %d: got %+v, want id %d", i, m, id)
		}
	}
}

// TestShardedDuplicateConsumedOnce pins per-shard dedup: a duplicate
// fault's second copy is invisible once the sequence was consumed.
func TestShardedDuplicateConsumedOnce(t *testing.T) {
	b := newMailbox()
	b.dedup.Store(true)
	m := &Message{Src: 1, Tag: 2, Seq: 5, Bytes: 50}
	dup := *m
	b.put(m, false)
	b.put(&dup, false)
	b.put(&Message{Src: 1, Tag: 2, Seq: 6, Bytes: 60}, false)
	if got := b.tryTake(0, 1, 2); got.Seq != 5 {
		t.Fatalf("first take seq %d, want 5", got.Seq)
	}
	if got := b.tryTake(0, 1, 2); got == nil || got.Seq != 6 {
		t.Fatalf("second take %+v, want seq 6 (duplicate skipped)", got)
	}
	if got := b.tryTake(0, 1, 2); got != nil {
		t.Fatalf("third take %+v, want nil", got)
	}
}

// TestConcurrentMatchConservation hammers one mailbox from many
// senders while specific-source and wildcard receivers drain it
// concurrently: every envelope must be matched exactly once. Run under
// -race this is the sharded queues' data-race coverage.
func TestConcurrentMatchConservation(t *testing.T) {
	const (
		srcs   = 8
		perSrc = 200 // per tag class
	)
	f := New(srcs + 1)
	dst := srcs // rank receiving everything

	var wg sync.WaitGroup
	for s := 0; s < srcs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSrc; i++ {
				// tag 1 is consumed by the specific receiver of s,
				// tag 2 by the shared wildcard pool — disjoint so a
				// wildcard can never starve a specific receive.
				f.Deliver(dst, &Message{Src: s, Tag: 1, Kind: KindEager, Bytes: int64(s*perSrc + i)})
				f.Deliver(dst, &Message{Src: s, Tag: 2, Kind: KindEager, Bytes: int64((srcs+s)*perSrc + i)})
			}
		}(s)
	}

	got := make(chan int64, 2*srcs*perSrc)
	for s := 0; s < srcs; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			prev := int64(-1)
			for i := 0; i < perSrc; i++ {
				m := f.Match(dst, 0, s, 1)
				if m.Bytes <= prev {
					t.Errorf("src %d: pairwise order broken: %d after %d", s, m.Bytes, prev)
					return
				}
				prev = m.Bytes
				got <- m.Bytes
			}
		}(s)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < srcs*perSrc/4; i++ {
				got <- f.Match(dst, 0, AnySource, 2).Bytes
			}
		}()
	}
	wg.Wait()
	close(got)

	seen := make(map[int64]bool, 2*srcs*perSrc)
	for id := range got {
		if seen[id] {
			t.Fatalf("envelope %d matched twice", id)
		}
		seen[id] = true
	}
	if len(seen) != 2*srcs*perSrc {
		t.Fatalf("matched %d envelopes, want %d", len(seen), 2*srcs*perSrc)
	}

	st := f.MatchStatsSnapshot()
	if st.FastTakes != srcs*perSrc || st.WildTakes != srcs*perSrc {
		t.Fatalf("match stats %+v, want %d fast and %d wild", st, srcs*perSrc, srcs*perSrc)
	}
	if st.Queues == 0 {
		t.Fatalf("match stats report zero live queues")
	}
}

// TestMatchStatsAttribution pins the fast/wild split and queue count.
func TestMatchStatsAttribution(t *testing.T) {
	f := New(4)
	f.Deliver(0, &Message{Src: 1, Tag: 1, Kind: KindEager, Payload: buf.Virtual(8), Bytes: 8})
	f.Deliver(0, &Message{Src: 2, Tag: 1, Kind: KindEager, Payload: buf.Virtual(8), Bytes: 8})
	f.Deliver(0, &Message{Src: 3, Tag: 1, Kind: KindEager, Payload: buf.Virtual(8), Bytes: 8})
	before := f.MatchStatsSnapshot()
	f.Match(0, 0, 1, 1)
	f.Match(0, 0, AnySource, AnyTag)
	d := f.MatchStatsSnapshot().Sub(before)
	if d.FastTakes != 1 || d.WildTakes != 1 {
		t.Fatalf("delta %+v, want 1 fast / 1 wild", d)
	}
	if d.Queues != 3 {
		t.Fatalf("live queues %d, want 3", d.Queues)
	}
}

// TestRankCountersFillWholeLines pins the per-rank counter block to a
// whole number of 64-byte cache lines, so neighbouring ranks' hot
// counters never share a line.
func TestRankCountersFillWholeLines(t *testing.T) {
	if n := unsafe.Sizeof(rankCounters{}); n%64 != 0 {
		t.Fatalf("rankCounters is %d bytes, not a whole number of 64-byte lines", n)
	}
}

package buf

import "testing"

func TestPoolClassFor(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, -1},
		{-4, -1},
		{1, 0},
		{256, 0},
		{257, 1},
		{1 << 20, 20 - minPoolBits},
		{1 << maxPoolBits, poolClasses - 1},
		{1<<maxPoolBits + 1, -1},
	}
	for _, c := range cases {
		if got := poolClassFor(c.n); got != c.want {
			t.Errorf("poolClassFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPoolRecycles(t *testing.T) {
	// sync.Pool may drop entries under GC pressure, so assert the
	// reuse path via counters over enough round trips that at least
	// one hit is effectively certain.
	before := PoolStatsSnapshot()
	var hits bool
	for i := 0; i < 64 && !hits; i++ {
		b := GetPooledFor(0, 10_000)
		if b.Len() != 10_000 || b.IsVirtual() {
			t.Fatalf("pooled block: %v", b)
		}
		b.Bytes()[0] = 0xAB
		PutPooled(b)
		hits = PoolStatsSnapshot().Sub(before).Hits > 0
	}
	d := PoolStatsSnapshot().Sub(before)
	if d.Puts == 0 || d.Gets == 0 {
		t.Fatalf("pool counters did not move: %+v", d)
	}
	if !hits {
		t.Fatalf("no pooled reuse across 64 get/put round trips: %+v", d)
	}
}

func TestPoolDistinctRegions(t *testing.T) {
	a := GetPooledFor(0, 512)
	PutPooled(a)
	b := GetPooledFor(0, 512)
	if a.Region() == b.Region() {
		t.Fatal("recycled block kept its old region identity")
	}
	PutPooled(b)
}

func TestPutPooledNoops(t *testing.T) {
	// Plain, virtual and sliced blocks must be ignored.
	PutPooled(Alloc(128))
	PutPooled(Virtual(128))
	p := GetPooledFor(0, 1024)
	view := p.Slice(0, 512)
	PutPooled(view) // a view must never release the backing storage
	view.Bytes()[0] = 1
	PutPooled(p)
}

func TestPoolOutOfRangeFallsBack(t *testing.T) {
	big := GetPooledFor(0, 1<<maxPoolBits+1)
	if big.Len() != 1<<maxPoolBits+1 {
		t.Fatalf("fallback length: %d", big.Len())
	}
	// Fallback blocks are plain allocations: zeroed, non-pooled.
	if big.Bytes()[0] != 0 {
		t.Fatal("fallback block not zeroed")
	}
	PutPooled(big) // no-op
}

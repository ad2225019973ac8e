package buf

import (
	"fmt"
	"sync"
	"testing"
)

// TestPoolShardsIndependent pins the sharding contract: storage
// released from rank r's block goes back to r's shard, so a different
// shard's next Get cannot be served by it.
func TestPoolShardsIndependent(t *testing.T) {
	const n = 4 << 10
	// Drain both shards of this class so the test starts from empty
	// free lists (earlier tests may have left storage behind).
	for shard := 0; shard < PoolShards; shard++ {
		for i := 0; i < 64; i++ {
			if b := GetPooledFor(shard, n); b.pool == 0 {
				t.Fatalf("pooled range request fell back to plain alloc")
			}
		}
	}

	a := GetPooledFor(1, n)
	if got := int(a.shard); got != 1 {
		t.Fatalf("shard = %d, want 1", got)
	}
	mark := a.Bytes()
	mark[0] = 0xEE
	PutPooled(a)

	// Shard 2 must not see shard 1's storage.
	c := GetPooledFor(2, n)
	if c.shard != 2 {
		t.Fatalf("shard = %d, want 2", c.shard)
	}
	if len(c.Bytes()) > 0 && &c.Bytes()[0] == &mark[0] {
		t.Fatal("shard 2 was served shard 1's released storage")
	}

	// Shard 1 gets its storage back. Under the race detector sync.Pool
	// drops a random fraction of Puts by design, so the exact-recycling
	// assertion only holds in plain builds; the isolation assertions
	// above hold either way (a drop can never serve foreign storage).
	d := GetPooledFor(1, n)
	if !raceEnabled && (len(d.Bytes()) == 0 || &d.Bytes()[0] != &mark[0]) {
		t.Fatal("shard 1 did not recycle its own released storage")
	}
	PutPooled(c)
	PutPooled(d)
}

// TestPoolShardRankMapping pins the modulo mapping: ranks beyond
// PoolShards wrap, negative ranks (no rank context) use shard 0.
func TestPoolShardRankMapping(t *testing.T) {
	b := GetPooledFor(PoolShards+3, 1<<10)
	if b.shard != 3 {
		t.Fatalf("rank %d mapped to shard %d, want 3", PoolShards+3, b.shard)
	}
	PutPooled(b)
	z := GetPooledFor(-5, 1<<10)
	if z.shard != 0 {
		t.Fatalf("negative rank mapped to shard %d, want 0", z.shard)
	}
	PutPooled(z)
}

// TestPoolCrossShardRelease pins the home-shard contract across
// goroutines: a block drawn from rank r's shard and released on a
// goroutine serving a different rank (the receive-completion shape of
// internal/mpi) must return its storage to shard r — and the release
// must be attributed to shard r in the per-shard stats.
func TestPoolCrossShardRelease(t *testing.T) {
	const n = 8 << 10
	// Drain the two shards of this class so recycling is observable.
	for _, shard := range []int{3, 5} {
		for i := 0; i < 64; i++ {
			GetPooledFor(shard, n)
		}
	}
	before := PoolStatsSnapshot()
	b := GetPooledFor(3, n)
	mark := b.Bytes()
	mark[0] = 0xAB

	// Release on a goroutine that is churning a different shard, as a
	// peer rank's receive completion would.
	done := make(chan struct{})
	go func() {
		defer close(done)
		other := GetPooledFor(5, n)
		PutPooled(b) // cross-shard release of shard 3's block
		PutPooled(other)
	}()
	<-done

	d := PoolStatsSnapshot().Sub(before)
	if d.Shards[3].Puts != 1 {
		t.Errorf("shard 3 puts = %d, want 1 (cross-shard release must be attributed home)", d.Shards[3].Puts)
	}
	if d.Shards[5].Puts != 1 {
		t.Errorf("shard 5 puts = %d, want 1", d.Shards[5].Puts)
	}
	// Shard 3 recycles its own storage; shard 5 must not see it.
	c := GetPooledFor(5, n)
	if len(c.Bytes()) > 0 && &c.Bytes()[0] == &mark[0] {
		t.Fatal("shard 5 was served shard 3's released storage")
	}
	// Exact recycling is only deterministic in plain builds: under the
	// race detector sync.Pool drops a random fraction of Puts by design.
	d3 := GetPooledFor(3, n)
	if !raceEnabled && (len(d3.Bytes()) == 0 || &d3.Bytes()[0] != &mark[0]) {
		t.Fatal("shard 3 did not recycle the cross-shard-released storage")
	}
	PutPooled(c)
	PutPooled(d3)
}

// TestPoolShardStatsBreakdown pins that the per-shard counters sum to
// the whole-pool totals and attribute gets to the drawing shard.
func TestPoolShardStatsBreakdown(t *testing.T) {
	before := PoolStatsSnapshot()
	a := GetPooledFor(1, 4<<10)
	b := GetPooledFor(6, 4<<10)
	PutPooled(a)
	PutPooled(b)
	d := PoolStatsSnapshot().Sub(before)
	if d.Shards[1].Gets != 1 || d.Shards[6].Gets != 1 {
		t.Errorf("shard gets = %+v, want one each on shards 1 and 6", d.Shards)
	}
	var gets, hits, puts int64
	for _, s := range d.Shards {
		gets += s.Gets
		hits += s.Hits
		puts += s.Puts
	}
	if gets != d.Gets || hits != d.Hits || puts != d.Puts {
		t.Errorf("per-shard sums (%d/%d/%d) disagree with totals (%d/%d/%d)",
			gets, hits, puts, d.Gets, d.Hits, d.Puts)
	}
}

// BenchmarkPoolContention measures the free-list contention the
// per-rank shards remove: many rank goroutines churning transit-sized
// blocks through one shared shard versus through their own shards.
func BenchmarkPoolContention(b *testing.B) {
	const blockSize = 64 << 10
	for _, ranks := range []int{2, 8} {
		for _, mode := range []string{"singleShard", "perRankShard"} {
			b.Run(fmt.Sprintf("%s/ranks%d", mode, ranks), func(b *testing.B) {
				b.SetBytes(blockSize)
				var wg sync.WaitGroup
				per := b.N/ranks + 1
				b.ResetTimer()
				for r := 0; r < ranks; r++ {
					shard := 0
					if mode == "perRankShard" {
						shard = r
					}
					wg.Add(1)
					go func(shard int) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							blk := GetPooledFor(shard, blockSize)
							blk.Bytes()[0] = byte(i) // touch so the Get is not dead
							PutPooled(blk)
						}
					}(shard)
				}
				wg.Wait()
			})
		}
	}
}

// TestPoolShardInUseGauge pins the per-shard occupancy breakdown: a
// checkout is charged to the drawing shard and released at the home
// shard, wherever the release runs.
func TestPoolShardInUseGauge(t *testing.T) {
	const rank = 3 // shard 3
	before := PoolStatsSnapshot()
	b := GetPooledFor(rank, 2048)
	mid := PoolStatsSnapshot()
	if d := mid.Shards[rank].InUseBytes - before.Shards[rank].InUseBytes; d != 2048 {
		t.Fatalf("shard %d inUse delta %d after get, want 2048", rank, d)
	}
	PutPooled(b)
	after := PoolStatsSnapshot()
	if d := after.Shards[rank].InUseBytes - before.Shards[rank].InUseBytes; d != 0 {
		t.Fatalf("shard %d inUse delta %d after put, want 0", rank, d)
	}
}

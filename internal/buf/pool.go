package buf

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// This file implements the size-classed block pool behind the
// runtime's transient buffers: pack scratch, eager transit copies and
// rendezvous staging in internal/mpi. Those allocations are pure
// per-message overhead — exactly the software cost the paper shows
// dominating non-contiguous sends — so the hot path recycles them
// through power-of-two sync.Pool classes instead of allocating.
//
// The free lists are sharded: each rank of the simulated world draws
// from its own shard (GetPooledFor), so at high world sizes the ranks'
// transit churn does not contend on one free list per class. A block
// remembers its home shard and PutPooled returns the storage there,
// wherever the release happens (receive completions run on the peer
// rank's goroutine).
//
// Contract: GetPooledFor returns a real block whose contents are
// UNDEFINED (not zeroed — zeroing would cost the bandwidth the pool
// saves); callers must write before they read. PutPooled returns the
// backing storage to its class; the caller must not touch the block —
// or any Slice of it — afterwards. Only the Block returned by
// GetPooledFor can release the storage: sub-blocks made with Slice are
// plain views. Double-release is the caller's bug, as with any free
// list; the release points in internal/mpi are the single
// receive-completion sites.

const (
	// minPoolBits..maxPoolBits bound the pooled classes: 256 B to
	// 64 MiB. Below, the allocator is cheap enough; above, holding the
	// memory would outweigh reuse (the harness caps real payloads at
	// 16 MiB by default).
	minPoolBits = 8
	maxPoolBits = 26

	poolClasses = maxPoolBits - minPoolBits + 1
)

// PoolShards is the number of independent free-list shards. Ranks map
// onto shards modulo this count (a power of two, so the map is a
// mask); more shards than a node has memory channels buys nothing.
const PoolShards = 8

var blockPools [PoolShards][poolClasses]sync.Pool

// poolCounters feed PoolStats so tests and studies can verify reuse.
// The totals are kept alongside the per-shard breakdown so the cheap
// whole-pool read never sums an array. inUse is the storage
// (class-rounded) currently checked out of the pool.
var poolCounters struct {
	gets, hits, puts, inUse atomic.Int64

	shard [PoolShards]struct {
		gets, hits, puts, inUse atomic.Int64
	}
}

// ShardPoolStats is one free-list shard's slice of the pool counters.
// Gets and Hits are attributed to the shard the block was drawn from;
// Puts to the block's home shard — the shard the storage returns to —
// wherever the release runs, so a rank's staging and transit churn is
// attributable shard by shard.
type ShardPoolStats struct {
	Gets int64
	Hits int64
	Puts int64
	// InUseBytes is the class-rounded storage currently checked out of
	// this shard — a point-in-time gauge (Sub carries it through), the
	// per-shard occupancy the scale harness reports for imbalance.
	InUseBytes int64
}

// PoolStats is a snapshot of the block-pool counters.
type PoolStats struct {
	Gets int64 // pooled-range GetPooledFor calls
	Hits int64 // Gets served by recycled storage
	Puts int64 // blocks returned

	// InUseBytes is the class-rounded storage currently checked out:
	// a point-in-time gauge, not a counter (Sub carries the receiver's
	// value through).
	InUseBytes int64

	// Shards is the per-shard breakdown; the totals above are its sums.
	Shards [PoolShards]ShardPoolStats
}

// Sub returns the counter-wise difference s - o.
func (s PoolStats) Sub(o PoolStats) PoolStats {
	d := PoolStats{
		Gets: s.Gets - o.Gets, Hits: s.Hits - o.Hits, Puts: s.Puts - o.Puts,
		InUseBytes: s.InUseBytes,
	}
	for i := range d.Shards {
		d.Shards[i] = ShardPoolStats{
			Gets:       s.Shards[i].Gets - o.Shards[i].Gets,
			Hits:       s.Shards[i].Hits - o.Shards[i].Hits,
			Puts:       s.Shards[i].Puts - o.Shards[i].Puts,
			InUseBytes: s.Shards[i].InUseBytes,
		}
	}
	return d
}

// PoolStatsSnapshot returns the current block-pool counters with the
// per-shard breakdown.
func PoolStatsSnapshot() PoolStats {
	st := PoolStats{
		Gets:       poolCounters.gets.Load(),
		Hits:       poolCounters.hits.Load(),
		Puts:       poolCounters.puts.Load(),
		InUseBytes: poolCounters.inUse.Load(),
	}
	for i := range st.Shards {
		st.Shards[i] = ShardPoolStats{
			Gets:       poolCounters.shard[i].gets.Load(),
			Hits:       poolCounters.shard[i].hits.Load(),
			Puts:       poolCounters.shard[i].puts.Load(),
			InUseBytes: poolCounters.shard[i].inUse.Load(),
		}
	}
	return st
}

// poolClassFor returns the class index for an n-byte request, or -1
// when n lies outside the pooled range.
func poolClassFor(n int) int {
	if n <= 0 || n > 1<<maxPoolBits {
		return -1
	}
	bits := minPoolBits
	for 1<<bits < n {
		bits++
	}
	return bits - minPoolBits
}

// GetPooledFor returns a real block of n bytes backed by size-classed
// recycled storage from the free-list shard of the given rank (mapped
// modulo PoolShards), so concurrent ranks recycle through independent
// lists instead of contending on one. The contents are undefined; the
// caller must write before reading. Requests outside the pooled range
// fall back to a plain (zeroed) allocation. The block carries a fresh
// Region: the cache model treats it like any new allocation.
func GetPooledFor(rank, n int) Block {
	c := poolClassFor(n)
	if c < 0 {
		return Alloc(n)
	}
	shard := rank & (PoolShards - 1)
	if rank < 0 {
		shard = 0
	}
	poolCounters.gets.Add(1)
	poolCounters.shard[shard].gets.Add(1)
	poolCounters.inUse.Add(int64(1) << (minPoolBits + c))
	poolCounters.shard[shard].inUse.Add(int64(1) << (minPoolBits + c))
	if v := blockPools[shard][c].Get(); v != nil {
		poolCounters.hits.Add(1)
		poolCounters.shard[shard].hits.Add(1)
		sl := unsafe.Slice(v.(*byte), 1<<(minPoolBits+c))
		return Block{data: sl[:n], n: n, region: nextRegion(), pool: int8(c) + 1, shard: int8(shard)}
	}
	sl := make([]byte, 1<<(minPoolBits+c))
	return Block{data: sl[:n], n: n, region: nextRegion(), pool: int8(c) + 1, shard: int8(shard)}
}

// PutPooled returns a block obtained from GetPooledFor to the size class
// of its home shard. It is a no-op for any other block (plain,
// virtual, or a Slice view), so release sites can call it
// unconditionally.
func PutPooled(b Block) {
	if b.pool == 0 || b.data == nil {
		return
	}
	poolCounters.inUse.Add(-(int64(1) << (minPoolBits + int(b.pool) - 1)))
	poolCounters.shard[b.shard].inUse.Add(-(int64(1) << (minPoolBits + int(b.pool) - 1)))
	poolCounters.puts.Add(1)
	poolCounters.shard[b.shard].puts.Add(1)
	// The pool holds the backing array's first byte, not a slice
	// header: a pointer fits the interface without a heap box, and
	// the class fixes the length GetPooledFor rebuilds.
	blockPools[b.shard][b.pool-1].Put(unsafe.SliceData(b.data))
}

// Package buf provides the byte-buffer abstraction used throughout the
// repository: a Block is a fixed-length run of bytes that is either
// *real* (backed by a []byte that data actually moves through) or
// *virtual* (length-only, used to model multi-gigabyte payloads without
// materialising them).
//
// Every copy routine in the runtime goes through Block so that the
// protocol code paths — gather loops, pack engines, chunked internal
// buffers — execute identically for real and virtual payloads; only the
// final memmove is elided for virtual ones. Tests pin the equivalence
// of the two modes (see buf_test.go and the integration tests in
// internal/mpi).
//
// The paper (§3.2) allocates send/receive buffers with 64-byte
// alignment outside the timing loop and zeroes them to force page
// instantiation. AllocAligned mirrors that protocol: it over-allocates
// and zeroes eagerly. Go's allocator already aligns large slices to at
// least a cache line on the platforms we target, so alignment is
// best-effort rather than guaranteed, which is sufficient for a
// simulated fabric.
package buf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"
)

// CacheLine is the alignment the paper requests for all message
// buffers (64 bytes on every machine in the study).
const CacheLine = 64

// Region identifies the allocation a block belongs to. The cache model
// (internal/memsim) tracks warmth per region, so two slices of the same
// allocation share cache state while distinct allocations do not.
type Region uint64

var regionCounter atomic.Uint64

func nextRegion() Region { return Region(regionCounter.Add(1)) }

// Block is a fixed-length byte buffer, real or virtual.
//
// The zero value is an empty real block.
type Block struct {
	data   []byte // nil iff virtual and n > 0
	n      int
	region Region
	// pool is 1+class when the backing storage came from the
	// size-classed pool (see pool.go) and this Block is the handle
	// that may return it; 0 otherwise. Slices clear it so only the
	// original handle can release.
	pool int8
	// shard is the pool shard the backing storage belongs to;
	// meaningful only when pool != 0.
	shard int8
}

// Alloc returns a real zeroed block of n bytes.
func Alloc(n int) Block {
	if n < 0 {
		panic("buf: negative length")
	}
	return Block{data: make([]byte, n), n: n, region: nextRegion()}
}

// AllocAligned returns a real zeroed block of n bytes whose backing
// storage was over-allocated by one cache line, mirroring the paper's
// 64-byte-aligned allocation protocol. The returned block is eagerly
// zeroed (it comes from make, which zeroes), so page instantiation is
// outside any timing loop that uses it.
func AllocAligned(n int) Block {
	if n < 0 {
		panic("buf: negative length")
	}
	backing := make([]byte, n+CacheLine)
	return Block{data: backing[:n:n], n: n, region: nextRegion()}
}

// Virtual returns a virtual block of n bytes. It has a length but no
// storage; copies involving it are counted but not performed.
func Virtual(n int) Block {
	if n < 0 {
		panic("buf: negative length")
	}
	return Block{data: nil, n: n, region: nextRegion()}
}

// FromBytes wraps an existing slice as a real block. The block aliases
// the slice; writes through the block are visible to the caller.
func FromBytes(b []byte) Block {
	return Block{data: b, n: len(b), region: nextRegion()}
}

// Region returns the allocation identity of the block. Sub-blocks made
// with Slice keep their parent's region.
func (b Block) Region() Region { return b.region }

// Len reports the block length in bytes.
func (b Block) Len() int { return b.n }

// IsVirtual reports whether the block has no backing storage.
func (b Block) IsVirtual() bool { return b.data == nil && b.n > 0 }

// Bytes returns the backing slice, or nil for a virtual block.
func (b Block) Bytes() []byte { return b.data }

// Slice returns the sub-block [off, off+n). It panics if the range is
// out of bounds, matching slice semantics.
func (b Block) Slice(off, n int) Block {
	if off < 0 || n < 0 || off+n > b.n {
		panic(fmt.Sprintf("buf: slice [%d:%d] out of range of block of %d bytes", off, off+n, b.n))
	}
	if b.IsVirtual() {
		return Block{data: nil, n: n, region: b.region}
	}
	return Block{data: b.data[off : off+n : off+n], n: n, region: b.region}
}

// Truncate returns the block shortened to n bytes from its start,
// keeping its pool identity: unlike a Slice view, the result can still
// release the backing storage through PutPooled. The fabric uses it
// for truncation faults on pooled transit payloads.
func (b Block) Truncate(n int) Block {
	if n < 0 || n > b.n {
		panic(fmt.Sprintf("buf: truncate to %d bytes of block of %d bytes", n, b.n))
	}
	if b.IsVirtual() {
		return Block{data: nil, n: n, region: b.region}
	}
	t := b
	t.data = b.data[:n]
	t.n = n
	return t
}

// Zero clears a real block; it is a no-op for virtual blocks.
func (b Block) Zero() {
	for i := range b.data {
		b.data[i] = 0
	}
}

// ErrSizeMismatch is returned by CopyTo when lengths differ.
var ErrSizeMismatch = errors.New("buf: source and destination lengths differ")

// Copy copies min(len(dst), len(src)) bytes from src to dst and
// returns the number of bytes logically transferred. If either side is
// virtual the move is counted but not performed.
func Copy(dst, src Block) int {
	n := dst.n
	if src.n < n {
		n = src.n
	}
	if dst.data != nil && src.data != nil {
		copy(dst.data[:n], src.data[:n])
	}
	return n
}

// CopyAt copies n bytes from src[srcOff:] to dst[dstOff:]. Bounds are
// checked; virtual participants skip the physical move.
func CopyAt(dst Block, dstOff int, src Block, srcOff, n int) int {
	if n < 0 || dstOff < 0 || srcOff < 0 || dstOff+n > dst.n || srcOff+n > src.n {
		panic(fmt.Sprintf("buf: CopyAt out of range: dst[%d:%d] of %d, src[%d:%d] of %d",
			dstOff, dstOff+n, dst.n, srcOff, srcOff+n, src.n))
	}
	if dst.data != nil && src.data != nil {
		copy(dst.data[dstOff:dstOff+n], src.data[srcOff:srcOff+n])
	}
	return n
}

// FillPattern writes a deterministic byte pattern derived from seed
// into a real block; virtual blocks are untouched. The pattern is
// position-dependent so that tests detect both missing and misplaced
// bytes: byte i holds patternByte(seed, i), counted from the block's
// own byte 0 (a Slice view restarts it).
//
// Within one 256-byte row i>>8 and i>>16 are fixed, so the row is the
// identity row 0, 1, … 255 XOR one broadcast byte: whole rows are
// written a word at a time and only the tail runs the byte loop.
func (b Block) FillPattern(seed byte) {
	d := b.data
	full := len(d) &^ (patternRow - 1)
	for base := 0; base < full; base += patternRow {
		row := d[base : base+patternRow : base+patternRow]
		key := rowKey(seed, base/patternRow)
		word := uint64(identityWord)
		for j := 0; j < patternRow; j += 8 {
			binary.LittleEndian.PutUint64(row[j:], word^key)
			word += 8 * byteLanes
		}
	}
	for i := full; i < len(d); i++ {
		d[i] = patternByte(seed, i)
	}
}

// VerifyPattern checks that a real block holds exactly the pattern
// FillPattern(seed) would write, and names the first byte that does
// not. Virtual blocks verify trivially.
func (b Block) VerifyPattern(seed byte) error {
	d := b.data
	full := len(d) &^ (patternRow - 1)
	for base := 0; base < full; base += patternRow {
		row := d[base : base+patternRow : base+patternRow]
		key := rowKey(seed, base/patternRow)
		word := uint64(identityWord)
		var diff uint64
		for j := 0; j < patternRow; j += 8 {
			diff |= binary.LittleEndian.Uint64(row[j:]) ^ word ^ key
			word += 8 * byteLanes
		}
		if diff != 0 {
			return firstMismatch(d[:base+patternRow], seed, base)
		}
	}
	return firstMismatch(d, seed, full)
}

// firstMismatch compares d[from:] with the reference byte by byte.
func firstMismatch(d []byte, seed byte, from int) error {
	for i := from; i < len(d); i++ {
		if want := patternByte(seed, i); d[i] != want {
			return fmt.Errorf("buf: pattern mismatch at byte %d: got %#x want %#x", i, d[i], want)
		}
	}
	return nil
}

const (
	// patternRow is the span over which patternByte's high terms are
	// constant.
	patternRow = 256
	// byteLanes broadcasts a byte into the eight lanes of a word.
	byteLanes = 0x0101010101010101
	// identityWord is bytes 0…7 of the identity row, little-endian;
	// adding 8·byteLanes steps it to the next eight (no lane carries:
	// the last lane of a row holds 255).
	identityWord = 0x0706050403020100
)

// rowKey is the part of patternByte shared by every byte of a row,
// broadcast to a word.
func rowKey(seed byte, row int) uint64 {
	return uint64(seed^byte(row)*31^byte(row>>8)*17) * byteLanes
}

// patternByte defines the pattern: the reference FillPattern and
// VerifyPattern are tested against, and their tail loop.
func patternByte(seed byte, i int) byte {
	return seed ^ byte(i) ^ byte(i>>8)*31 ^ byte(i>>16)*17
}

// Overlaps reports whether two real blocks share any backing bytes —
// the aliasing check fused transfer engines use before copying between
// two layouts in one pass (a self-send through aliased buffers must
// take the staged path). Virtual or empty blocks never overlap.
func Overlaps(a, b Block) bool {
	if a.data == nil || b.data == nil || a.n == 0 || b.n == 0 {
		return false
	}
	aLo := uintptr(unsafe.Pointer(&a.data[0]))
	bLo := uintptr(unsafe.Pointer(&b.data[0]))
	aHi := aLo + uintptr(a.n)
	bHi := bLo + uintptr(b.n)
	return aLo < bHi && bLo < aHi
}

// Equal reports whether two real blocks have identical contents.
// If either block is virtual, Equal compares lengths only.
func Equal(a, b Block) bool {
	if a.n != b.n {
		return false
	}
	if a.data == nil || b.data == nil {
		return true
	}
	return bytes.Equal(a.data, b.data)
}

// String implements fmt.Stringer for diagnostics.
func (b Block) String() string {
	kind := "real"
	if b.IsVirtual() {
		kind = "virtual"
	}
	return fmt.Sprintf("buf.Block{%s, %d bytes}", kind, b.n)
}

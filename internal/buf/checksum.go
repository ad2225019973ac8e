package buf

import (
	"encoding/binary"
	"unsafe"
)

// Checksum is the streaming integrity hash over a payload's packed
// byte stream. The stream is read as little-endian 64-bit words; word
// number i (counted from the start of the stream, whatever Write or
// FoldRuns call delivers it) is folded into lane i mod 4 by one
// FNV-1a-style step, h = (h XOR word) * prime. Sum64 then folds the
// four lanes in order into one value, followed by the pending tail
// (the stream's last 1..7 bytes, if its length is not a multiple of
// eight), the tail's length and the stream length.
//
// Why four lanes: a single chain is bound by the latency of one 64-bit
// multiply per word; four independent chains keep the multiplier busy
// and run at memory speed.
//
// Why the value is still a pure function of the byte stream regardless
// of how it was chunked: the lane a word lands in depends only on its
// index in the stream, and bytes that do not yet fill a word wait in a
// carry buffer until the next call completes it. Sender and receiver
// walk the same packed-stream order through different segmentations
// (internal chunks, pipeline slots, a layout's runs) and arrive at the
// same Sum64.
//
// What is detected: every step is a bijection of its lane's state and
// the final fold is a chain of bijections of the lanes, so two streams
// of equal length that differ in exactly one word — any single-bit,
// single-byte or single-word damage, which is what the fabric injects
// — always have different sums. Streams of different length differ in
// the folded tail and length (truncation, extension by zero bytes or
// words). Moving a word to another position changes either the order
// within a lane's chain or which lane holds it, and the ordered lane
// fold keeps the lanes from being interchangeable. What is not: this
// is an integrity check against injected corruption, not a
// cryptographic MAC — multi-word damage collides with probability
// about 2^-64 at best and an adversary can construct collisions.
//
// The kernel allocates nothing, and a sender spends no pass on it: the
// strided move that packs or fuses a chunk folds each word while it
// holds it (MoveRuns, under datatype's copyRunGroups), once per
// transfer — a source does not change under a send, so replays reuse
// the sum. Only a receiver verifying what landed still reads bytes just
// to sum them (Write over staging, FoldRuns over a layout).
type Checksum struct {
	lane  [4]uint64
	words uint64 // whole words folded so far; the next one goes to lane words%4
	pend  [8]byte
	n     int   // buffered bytes in pend (0..7)
	len   int64 // total stream length folded so far, incl. virtual
}

const (
	csumOffset = 14695981039346656037
	csumPrime  = 1099511628211
)

// csumSeed is the lanes' common starting state. A zero Checksum stands
// for it: the lanes are seeded by the first call that finds len == 0,
// and nothing can have been folded before that.
var csumSeed = [4]uint64{csumOffset, csumOffset, csumOffset, csumOffset}

// Reset returns the checksum to its initial state.
func (c *Checksum) Reset() { *c = Checksum{} }

// Write folds p into the checksum.
func (c *Checksum) Write(p []byte) {
	if c.len == 0 {
		c.lane = csumSeed
	}
	c.len += int64(len(p))
	// Drain the carry buffer first.
	if c.n > 0 {
		k := copy(c.pend[c.n:], p)
		c.n += k
		p = p[k:]
		if c.n < 8 {
			return
		}
		c.foldWord(binary.LittleEndian.Uint64(c.pend[:]))
		c.n = 0
	}
	if p = c.foldWords(p); len(p) > 0 {
		c.n = copy(c.pend[:], p)
	}
}

// foldWord folds one word into the lane its stream index selects.
func (c *Checksum) foldWord(w uint64) {
	l := &c.lane[c.words&3]
	*l = (*l ^ w) * csumPrime
	c.words++
}

// foldWords folds the whole words of p — the carry buffer is empty —
// and returns the tail of fewer than eight bytes.
func (c *Checksum) foldWords(p []byte) []byte {
	for c.words&3 != 0 && len(p) >= 8 {
		c.foldWord(binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) >= 32 {
		h0, h1, h2, h3 := c.lane[0], c.lane[1], c.lane[2], c.lane[3]
		groups := uint64(len(p) / 32)
		for ; len(p) >= 32; p = p[32:] {
			h0 = (h0 ^ binary.LittleEndian.Uint64(p)) * csumPrime
			h1 = (h1 ^ binary.LittleEndian.Uint64(p[8:])) * csumPrime
			h2 = (h2 ^ binary.LittleEndian.Uint64(p[16:])) * csumPrime
			h3 = (h3 ^ binary.LittleEndian.Uint64(p[24:])) * csumPrime
		}
		c.lane = [4]uint64{h0, h1, h2, h3}
		c.words += 4 * groups
	}
	for ; len(p) >= 8; p = p[8:] {
		c.foldWord(binary.LittleEndian.Uint64(p))
	}
	return p
}

// FoldRuns folds n runs of runLen bytes, run k at data[base+k*step:],
// in that order: exactly Write of each run in turn. It is the run
// kernel under datatype.Plan.ChecksumRange: when the state is
// word-aligned (no carried bytes) and runs are whole words, the words
// go from the strided buffer straight into the lanes, held in registers
// for the whole batch — four runs per iteration for the 8-byte runs of
// the paper's every-other-double layouts, four words per iteration
// within longer runs.
func (c *Checksum) FoldRuns(data []byte, base, step, runLen, n int64) {
	if c.n != 0 || runLen&7 != 0 || runLen <= 0 || n <= 0 {
		for ; n > 0; n-- {
			c.Write(data[base : base+runLen])
			base += step
		}
		return
	}
	if c.len == 0 {
		c.lane = csumSeed
	}
	c.len += n * runLen
	// One bounds check for the batch: the reslice to the span of the
	// runs covers every load, and the words are read at offsets from one
	// base pointer (no pointer is ever formed outside the slice) — the
	// per-word slice checks cost more than the fold.
	lo, hi := RunSpan(base, step, 0, runLen, n, 1)
	data = data[lo:hi]
	p, o := unsafe.Pointer(&data[0]), base-lo
	// h0 is the lane of the next word of the stream, h1 of the one after
	// it, and so on round the four: a group of four words leaves that
	// assignment as it was, fewer rotate it.
	ph := c.words & 3
	h0, h1, h2, h3 := c.lane[ph], c.lane[(ph+1)&3], c.lane[(ph+2)&3], c.lane[(ph+3)&3]
	c.words += uint64(n * runLen >> 3)
	if runLen == 8 {
		for ; n >= 4; n -= 4 {
			h0 = (h0 ^ le64(unsafe.Add(p, o))) * csumPrime
			h1 = (h1 ^ le64(unsafe.Add(p, o+step))) * csumPrime
			h2 = (h2 ^ le64(unsafe.Add(p, o+2*step))) * csumPrime
			h3 = (h3 ^ le64(unsafe.Add(p, o+3*step))) * csumPrime
			o += 4 * step
		}
		// The loop below would finish the last one to three runs as
		// well; finishing them here keeps its state out of the
		// registers of the loop above.
		for ; n > 0; n-- {
			h0 = (h0 ^ le64(unsafe.Add(p, o))) * csumPrime
			h0, h1, h2, h3 = h1, h2, h3, h0
			o += step
		}
	}
	// Runs of m words: whole groups of four, then the odd words.
	for m := runLen >> 3; n > 0; n-- {
		q := o
		for g := m >> 2; g > 0; g-- {
			h0 = (h0 ^ le64(unsafe.Add(p, q))) * csumPrime
			h1 = (h1 ^ le64(unsafe.Add(p, q+8))) * csumPrime
			h2 = (h2 ^ le64(unsafe.Add(p, q+16))) * csumPrime
			h3 = (h3 ^ le64(unsafe.Add(p, q+24))) * csumPrime
			q += 32
		}
		switch m & 3 {
		case 1:
			h0 = (h0 ^ le64(unsafe.Add(p, q))) * csumPrime
			h0, h1, h2, h3 = h1, h2, h3, h0
		case 2:
			h0 = (h0 ^ le64(unsafe.Add(p, q))) * csumPrime
			h1 = (h1 ^ le64(unsafe.Add(p, q+8))) * csumPrime
			h0, h1, h2, h3 = h2, h3, h0, h1
		case 3:
			h0 = (h0 ^ le64(unsafe.Add(p, q))) * csumPrime
			h1 = (h1 ^ le64(unsafe.Add(p, q+8))) * csumPrime
			h2 = (h2 ^ le64(unsafe.Add(p, q+16))) * csumPrime
			h0, h1, h2, h3 = h3, h0, h1, h2
		}
		o += step
	}
	ph = c.words & 3
	c.lane[ph], c.lane[(ph+1)&3], c.lane[(ph+2)&3], c.lane[(ph+3)&3] = h0, h1, h2, h3
}

// MoveRuns is the strided move that folds what it moves: k groups of q
// runs of runLen bytes, run j of group i copied from
// src[so+i*sGroup+j*sStep:] to dst[do+i*dGroup+j*dStep:] and folded, in
// that order — the bytes a copy of each run leaves, the sum Write of
// each run in turn gives. It is datatype's one strided move
// (copyRunGroups) when a checksum rides along: with a word-aligned
// state and runs of whole words every word is loaded once, stored, and
// folded into its lane; otherwise each run is copied, then written.
// Bounds as in FoldRuns: both slices are resliced to the span the
// batch touches before any byte moves.
func (c *Checksum) MoveRuns(dst, src []byte, do, so, dStep, sStep, dGroup, sGroup, runLen, q, k int64) {
	if q == 1 {
		q, k = k, 1
		dStep, sStep = dGroup, sGroup
	}
	if k <= 0 || q <= 0 || runLen <= 0 {
		return
	}
	dLo, dHi := RunSpan(do, dStep, dGroup, runLen, q, k)
	sLo, sHi := RunSpan(so, sStep, sGroup, runLen, q, k)
	dst, src = dst[dLo:dHi], src[sLo:sHi]
	do, so = do-dLo, so-sLo
	if c.n == 0 && runLen == 8 {
		c.moveWords(dst, src, do, so, dStep, sStep, dGroup, sGroup, q, k)
		return
	}
	for ; k > 0; k-- {
		if c.n == 0 && runLen&7 == 0 {
			// Each run is a group of its words.
			c.moveWords(dst, src, do, so, 8, 8, dStep, sStep, runLen>>3, q)
		} else {
			o, u := do, so
			for n := q; n > 0; n-- {
				copy(dst[o:o+runLen], src[u:u+runLen])
				c.Write(src[u : u+runLen])
				o += dStep
				u += sStep
			}
		}
		do += dGroup
		so += sGroup
	}
}

// moveWords is MoveRuns for one-word runs and a word-aligned state,
// every run inside the slices: four words per iteration, the lanes in
// registers for the whole batch as in FoldRuns. The cursors step from
// word to word and never past the last one, so no pointer is formed
// outside its slice.
func (c *Checksum) moveWords(dst, src []byte, do, so, dStep, sStep, dGroup, sGroup, q, k int64) {
	if c.len == 0 {
		c.lane = csumSeed
	}
	c.len += k * q * 8
	// h0 is the lane of the next word of the stream, and so on round
	// the four.
	ph := c.words & 3
	h0, h1, h2, h3 := c.lane[ph], c.lane[(ph+1)&3], c.lane[(ph+2)&3], c.lane[(ph+3)&3]
	c.words += uint64(k * q)
	for ; k > 0; k-- {
		d, s, n := unsafe.Pointer(&dst[do]), unsafe.Pointer(&src[so]), q
		for n >= 4 {
			h0 = moveWord(d, s, h0)
			d, s = unsafe.Add(d, dStep), unsafe.Add(s, sStep)
			h1 = moveWord(d, s, h1)
			d, s = unsafe.Add(d, dStep), unsafe.Add(s, sStep)
			h2 = moveWord(d, s, h2)
			d, s = unsafe.Add(d, dStep), unsafe.Add(s, sStep)
			h3 = moveWord(d, s, h3)
			if n -= 4; n > 0 {
				d, s = unsafe.Add(d, dStep), unsafe.Add(s, sStep)
			}
		}
		for ; n > 0; n-- {
			h0, h1, h2, h3 = h1, h2, h3, moveWord(d, s, h0)
			if n > 1 {
				d, s = unsafe.Add(d, dStep), unsafe.Add(s, sStep)
			}
		}
		do += dGroup
		so += sGroup
	}
	ph = c.words & 3
	c.lane[ph], c.lane[(ph+1)&3], c.lane[(ph+2)&3], c.lane[(ph+3)&3] = h0, h1, h2, h3
}

// RunSpan returns the byte span [lo, hi) one side of a strided batch
// touches: k groups of q runs of runLen bytes, the first at o, stepping
// by step within a group and by group between groups. A negative stride
// extends the span downwards from o.
func RunSpan(o, step, group, runLen, q, k int64) (lo, hi int64) {
	lo, hi = o, o+runLen
	for _, d := range [2]int64{(q - 1) * step, (k - 1) * group} {
		if d < 0 {
			lo += d
		} else {
			hi += d
		}
	}
	return lo, hi
}

// le64 loads the little-endian word at p, at any alignment.
func le64(p unsafe.Pointer) uint64 {
	return binary.LittleEndian.Uint64((*[8]byte)(p)[:])
}

// moveWord moves the word at s to d, at any alignment, and returns the
// lane state h with it folded in.
func moveWord(d, s unsafe.Pointer, h uint64) uint64 {
	w := le64(s)
	binary.LittleEndian.PutUint64((*[8]byte)(d)[:], w)
	return (h ^ w) * csumPrime
}

// SkipVirtual accounts n bytes of a virtual (storage-less) payload:
// both ends of a virtual transfer skip identically, so their sums
// still agree and still bind the stream length.
func (c *Checksum) SkipVirtual(n int64) {
	if c.len == 0 {
		c.lane = csumSeed
	}
	c.len += n
}

// Sum64 finalises over a copy of the state — the checksum remains
// usable for further writes — folding the lanes in order, then the
// pending tail and the stream length, so streams differing only by a
// short tail or by length cannot collide trivially.
func (c *Checksum) Sum64() uint64 {
	lane := c.lane
	if c.len == 0 {
		lane = csumSeed
	}
	h := uint64(csumOffset)
	for _, l := range lane {
		h = (h ^ l) * csumPrime
	}
	if c.n > 0 {
		var tail [8]byte
		copy(tail[:], c.pend[:c.n])
		h = (h ^ binary.LittleEndian.Uint64(tail[:])) * csumPrime
		h = (h ^ uint64(c.n)) * csumPrime
	}
	h = (h ^ uint64(c.len)) * csumPrime
	return h
}

// ChecksumOf is the one-shot helper: the checksum of a whole block's
// byte stream (length-only for virtual blocks).
func ChecksumOf(b Block) uint64 {
	var c Checksum
	if b.IsVirtual() {
		c.SkipVirtual(int64(b.Len()))
	} else {
		c.Write(b.Bytes())
	}
	return c.Sum64()
}

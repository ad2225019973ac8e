package simnet

// Selective chunk retransmission rides the rendezvous ACK channel: the
// receiver verifies each chunk of the packed stream against the
// sender's per-chunk checksums and, instead of NACKing the whole
// transfer, answers with a ChunkNack carrying the bitmap of damaged
// chunk indices. The sender then replays only those chunks. The fabric
// owns the bitmap envelope and the dup-suppression counters; chunking
// policy (chunk size, packing) stays in the protocol layer.

// ChunkBitmap is a fixed-capacity bitset over chunk indices.
type ChunkBitmap []uint64

// ChunkWords is the number of words a bitmap over n chunks holds.
func ChunkWords(n int) int {
	return (n + 63) / 64
}

// ChunkReplay is the selective-retransmission descriptor of a chunked
// rendezvous payload (RdvDone.Replay): the packed stream's first
// Covered bytes cut into Chunks pieces of ChunkSize bytes (the last one
// short). Sent marks the chunks an attempt carries (all of them on the
// first attempt, only the replayed ones afterwards); ChunkSums holds
// the sender-side checksum per chunk (indexed by chunk, valid for Sent
// chunks when the Done claims a sum); PoisonedChunks marks sent chunks
// the sender knows arrived damaged but could not mechanically damage;
// Dup marks sent chunks the fabric redelivered (the receiver must
// suppress the duplicate if it already accepted the chunk).
type ChunkReplay struct {
	Chunks         int
	ChunkSize      int64
	Covered        int64
	Sent           ChunkBitmap
	PoisonedChunks ChunkBitmap
	Dup            ChunkBitmap
	ChunkSums      []uint64
}

// NewChunkReplay returns the descriptor of a covered-byte stream in
// chunks of size bytes, every chunk marked Sent. The sums and the three
// bitmaps share one backing array.
func NewChunkReplay(chunks int, size, covered int64) *ChunkReplay {
	words := ChunkWords(chunks)
	s := make([]uint64, 3*words+chunks)
	r := &ChunkReplay{Chunks: chunks, ChunkSize: size, Covered: covered,
		Sent: s[:words:words], PoisonedChunks: s[words : 2*words : 2*words], Dup: s[2*words : 3*words : 3*words],
		ChunkSums: s[3*words:]}
	for i := 0; i < chunks; i++ {
		r.Sent.Set(i)
	}
	return r
}

// Set marks chunk i.
func (b ChunkBitmap) Set(i int) {
	if i >= 0 && i/64 < len(b) {
		b[i/64] |= 1 << uint(i%64)
	}
}

// Get reports whether chunk i is marked.
func (b ChunkBitmap) Get(i int) bool {
	return i >= 0 && i/64 < len(b) && b[i/64]&(1<<uint(i%64)) != 0
}

// Any reports whether any chunk is marked.
func (b ChunkBitmap) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// ChunkNack is the receiver's selective verdict on a chunked
// rendezvous attempt: the transfer as a whole is rejected, but only
// the chunks marked in Damaged need replaying. It travels through
// Message.Ack as an error so checksum-less senders degrade to the
// whole-transfer replay transparently.
type ChunkNack struct {
	// Damaged marks the chunk indices whose payload must be resent
	// (checksum mismatch, poisoned delivery, or never delivered).
	Damaged ChunkBitmap
}

// Error satisfies the error interface for the ACK channel.
func (n *ChunkNack) Error() string {
	return "simnet: chunk integrity NACK"
}

// PayloadChunkFault draws the fault verdict for one chunk of a
// rendezvous payload transfer on (src → dst). Unlike PayloadFault,
// duplicate faults survive the fold: a duplicated chunk exercises the
// receiver's per-chunk dup suppression (the stream redelivers the
// chunk; the receiver must accept it idempotently). Reorder/delay
// still make no sense inside a handshake-synchronised stream.
func (f *Fabric) PayloadChunkFault(src, dst int, n int64) Fault {
	fs := f.faults.Load()
	if fs == nil {
		return Fault{}
	}
	fault, _ := fs.next(src, dst, n, true)
	switch fault.Kind {
	case FaultReorder, FaultDelay:
		fault = Fault{}
	}
	if fault.Kind != FaultNone {
		f.noteFault(src, fault.Kind)
	}
	return fault
}

// NoteChunkRetransmit counts a selective replay by src: chunks chunk
// retransmissions carrying bytes payload bytes.
func (f *Fabric) NoteChunkRetransmit(src int, chunks int, bytes int64) {
	c := &f.counters[src]
	c.chunkRetransmits.Add(int64(chunks))
	c.retransmitBytes.Add(bytes)
}

// NoteDupChunkSuppressed counts one redelivered chunk the receiving
// rank discarded because it had already accepted it.
func (f *Fabric) NoteDupChunkSuppressed(rank int) {
	f.counters[rank].dupChunksSuppressed.Add(1)
}

package simnet

import "sync/atomic"

// legacyMailbox is the pre-sharding reference matcher: one flat queue
// scanned under a single lock (here lock-free: the differential tests
// drive it single-threaded). It reproduces the historical mailbox
// byte-for-byte — put with whole-queue prepend for reorder faults, the
// first-position-then-lower-Seq selection rule, and (src, seq)
// consumed-set deduplication — so the sharded matcher can be verified
// to deliver the exact same envelope for the exact same history.
type legacyMailbox struct {
	msgs     []*Message
	dedup    bool
	consumed map[uint64]struct{}
	takes    atomic.Int64
}

// legacySeqKey folds (src, seq) into one dedup key, exactly as the
// historical seqKey did.
func legacySeqKey(m *Message) uint64 {
	return uint64(m.Src)<<48 | uint64(m.Seq)&((1<<48)-1)
}

func (b *legacyMailbox) put(m *Message, front bool) {
	if front {
		b.msgs = append([]*Message{m}, b.msgs...)
	} else {
		b.msgs = append(b.msgs, m)
	}
}

// selectIdx is the historical selection rule: take the first queue
// position whose envelope matches, then prefer a lower link-sequence
// number from the same source. Stale duplicate copies (consumed
// sequences) are dropped on the way.
func (b *legacyMailbox) selectIdx(ctx, src, tag int) int {
	if b.dedup && len(b.consumed) > 0 {
		kept := b.msgs[:0]
		for _, m := range b.msgs {
			if _, dup := b.consumed[legacySeqKey(m)]; dup {
				continue
			}
			kept = append(kept, m)
		}
		for i := len(kept); i < len(b.msgs); i++ {
			b.msgs[i] = nil
		}
		b.msgs = kept
	}
	best := -1
	for i, m := range b.msgs {
		if !legacyMatches(m, ctx, src, tag) {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		if m.Src == b.msgs[best].Src && m.Seq < b.msgs[best].Seq {
			best = i
		}
	}
	return best
}

// tryTake removes and returns the selected envelope, or nil.
func (b *legacyMailbox) tryTake(ctx, src, tag int) *Message {
	i := b.selectIdx(ctx, src, tag)
	if i < 0 {
		return nil
	}
	m := b.msgs[i]
	b.msgs = append(b.msgs[:i], b.msgs[i+1:]...)
	if b.dedup {
		if b.consumed == nil {
			b.consumed = make(map[uint64]struct{})
		}
		b.consumed[legacySeqKey(m)] = struct{}{}
	}
	b.takes.Add(1)
	return m
}

// peek returns the selected envelope without removing it, or nil.
func (b *legacyMailbox) peek(ctx, src, tag int) *Message {
	if i := b.selectIdx(ctx, src, tag); i >= 0 {
		return b.msgs[i]
	}
	return nil
}

// legacyMatches reports whether the envelope satisfies a (ctx, src, tag)
// receive pattern. The context never matches a wildcard.
func legacyMatches(m *Message, ctx, src, tag int) bool {
	if m.Ctx != ctx {
		return false
	}
	if src != AnySource && m.Src != src {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

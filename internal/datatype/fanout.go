package datatype

import (
	"sync"

	"repro/internal/buf"
)

// This file is the engine's one fan-out: a range cut into per-worker
// shares (splitPoint), each share run by a goroutine of its own and the
// last one by the caller, who then waits for the rest. Every parallel
// execution goes through it — a whole message or a large chunk split at
// cache-line cuts (runParallelRange), a large contiguous payload copy at
// the same cuts (Move), a fused pass (fusedExec), and summed work split
// at piece boundaries: PackRangeSum's pieces, the chunks of PackChunks
// and StageChunks, and a receiver's per-chunk verify (ChecksumChunks).
// A summed piece never straddles two shares, so each sum stays one
// sequential chain, folded by one worker, and the sums and bytes are
// those of a serial run.
//
// A fan-out allocates nothing once warm. A share travels to its
// goroutine as a fanTask value over a buffered channel, naming the
// work by a static function, not a closure; the goroutine is started
// on the static, argument-free fanWorker; and the join is a pooled
// WaitGroup. Every goroutine started takes exactly one task and exits
// once it has run it, so none outlives the fan-out that started it,
// whichever fan-out's task it happens to take.

// fanTask is one share of a fan-out: run executes the range
// [from, to) of the work the other fields describe. Which fields a run
// reads is up to it; the call sites fill in what theirs needs.
type fanTask struct {
	run      func(t fanTask)
	wg       *sync.WaitGroup
	from, to int64

	p, q         *Plan
	user, stream buf.Block
	// out is the layout a staged chunk unpacks into through q.
	out buf.Block
	dir direction
	// base is where the whole range starts: the packed position of the
	// stream block's byte 0, and where piece 0 begins.
	base int64
	// end is where the whole range ends (a fused pass's total, a
	// verify's landed length).
	end int64
	// size is the piece length of summed or chunked work; piece i
	// covers [base+i*size, base+(i+1)*size) and its sum goes to sums[i].
	size int64
	sums []uint64
	// span is where a chunked move's running sum restarts, every span
	// bytes from base (span 0 sums nothing).
	span int64
	// set names the pieces a verify sums (bit i%64 of set[i/64]).
	set []uint64
	// share is the task's index among its fan-out's w shares.
	share int
}

var (
	// fanTasks hands shares to the goroutines a fan-out starts. Its
	// capacity, the shares of four concurrent fan-outs at the widest,
	// only saves the hand-off: a full channel blocks a sender until a
	// started goroutine takes a task, and one always will.
	fanTasks = make(chan fanTask, 4*maxPackWorkers)
	fanJoins = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// fanWorker runs one share and exits.
func fanWorker() {
	t := <-fanTasks
	t.run(t)
	t.wg.Done()
}

// fanOut runs t over the range [lo, hi) cut into w shares at
// multiples of align from lo: every non-empty share but the last on a
// goroutine of its own, the last on the calling goroutine. It returns
// once every share has run. With w <= 1 the whole range runs on the
// caller.
func fanOut(t fanTask, lo, hi, align int64, w int) {
	if w <= 1 {
		t.from, t.to = lo, hi
		t.run(t)
		return
	}
	wg := fanJoins.Get().(*sync.WaitGroup)
	t.wg = wg
	for k := 0; k < w-1; k++ {
		t.from, t.to, t.share = splitPoint(lo, hi, k, w, align), splitPoint(lo, hi, k+1, w, align), k
		if t.from < t.to {
			wg.Add(1)
			go fanWorker()
			fanTasks <- t
		}
	}
	t.from, t.to, t.share = splitPoint(lo, hi, w-1, w, align), hi, w-1
	t.run(t)
	wg.Wait()
	fanJoins.Put(wg)
}

// moveWorkers is parallelWorkersFor(n) for a move between a and b, or
// 1 when either side is virtual and nothing moves.
func moveWorkers(a, b buf.Block, n int64) int {
	if a.IsVirtual() || b.IsVirtual() {
		return 1
	}
	return parallelWorkersFor(n)
}

// Move copies n contiguous bytes from src[sOff:] to dst[dOff:] — the
// one payload copy of internal/mpi. It is buf.CopyAt (bounds checked,
// nothing moved when a side is virtual), split across the pack workers
// at 64-byte cuts from ParallelPackThreshold bytes on. It records no
// plan counter: a contiguous copy is not a plan execution.
func Move(dst buf.Block, dOff int64, src buf.Block, sOff, n int64) {
	move(dst, dOff, src, sOff, n, moveWorkers(dst, src, n))
}

// move is Move at w workers; overlapping ranges stay serial (memmove).
func move(dst buf.Block, dOff int64, src buf.Block, sOff, n int64, w int) {
	if w > 1 {
		d, s := dst.Slice(int(dOff), int(n)), src.Slice(int(sOff), int(n))
		if !buf.Overlaps(d, s) {
			fanOut(fanTask{run: moveShare, user: d, stream: s}, 0, n, 64, w)
			return
		}
	}
	buf.CopyAt(dst, int(dOff), src, int(sOff), int(n))
}

// moveShare copies one share of a contiguous move.
func moveShare(t fanTask) {
	buf.CopyAt(t.user, int(t.from), t.stream, int(t.from), int(t.to-t.from))
}

// splitPoint returns where share i of the range [lo, hi) cut w ways
// begins; share i ends where share i+1 begins and share w-1 at hi.
// Interior points are rounded down to a multiple of align from lo. An
// unsummed pass cuts at 64 bytes: the kernels can enter mid-run, so
// nothing requires it, but an even cut lands mid-word and mid-run for
// w = 3, 5, 6, 7 — every worker then starts and ends on the partial-run
// edge path, and two workers write the same cache line of a dense
// destination. Summed work cuts at its piece length, so every piece
// lies in one share and its sum in one chain.
func splitPoint(lo, hi int64, i, w int, align int64) int64 {
	if i >= w {
		return hi
	}
	cut := lo + (hi-lo)/int64(w)*int64(i)
	return cut - (cut-lo)%align
}

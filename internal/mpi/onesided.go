package mpi

import (
	"fmt"
	"sync"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/memsim"
	"repro/internal/vclock"
)

// Win is a one-sided communication window over each rank's exposed
// buffer, the analogue of MPI_Win. Epochs are delimited with Fence
// (active target synchronisation), exactly the mode the paper's
// one-sided scheme uses (§2.5: "we use MPI_Win_fence").
type Win struct {
	comm   *Comm
	shared *winShared
	seq    int
	freed  bool
}

// winShared is the cross-rank window state, registered in the fabric.
type winShared struct {
	mu      sync.Mutex
	blocks  []buf.Block   // exposed buffer of each rank
	pending [][]winAccess // incoming accesses per target rank, this epoch
	created map[int]bool  // which ranks registered their block
}

type winAccess struct {
	arrival vclock.Time
}

// WinCreate collectively creates a window exposing local on every
// rank, like MPI_Win_create. Every rank of the communicator must call
// it in the same order relative to other collectives.
func (c *Comm) WinCreate(local buf.Block) (*Win, error) {
	c.winSeq++
	key := fmt.Sprintf("win/%d/%d", c.ctx, c.winSeq)
	sh := c.fabric.Shared(key, func() interface{} {
		return &winShared{
			blocks:  make([]buf.Block, c.size),
			pending: make([][]winAccess, c.size),
			created: make(map[int]bool),
		}
	}).(*winShared)
	sh.mu.Lock()
	sh.blocks[c.rank] = local
	sh.created[c.rank] = true
	sh.mu.Unlock()
	w := &Win{comm: c, shared: sh, seq: c.winSeq}
	// Window creation is collective and synchronising: no rank may use
	// the window before every rank registered its buffer.
	c.groupSync()
	return w, nil
}

// Fence closes the current access epoch and opens the next, like
// MPI_Win_fence with zero assertions: it synchronises all ranks and
// completes every Put/Get/Accumulate issued in the epoch, at the
// profile's fence cost — the overhead that makes one-sided transfer
// slow for small messages (§4.4).
func (w *Win) Fence() error {
	if w.freed {
		return fmt.Errorf("%w: fence on freed window", ErrWin)
	}
	c := w.comm
	// Phase 1: every rank has issued its epoch's accesses (program
	// order: accesses precede the fence call on the origin).
	c.groupSync()
	// Drain accesses targeted at me; my epoch cannot close before the
	// last one has landed.
	w.shared.mu.Lock()
	t := c.clock.Now()
	for _, a := range w.shared.pending[c.rank] {
		if a.arrival > t {
			t = a.arrival
		}
	}
	w.shared.pending[c.rank] = w.shared.pending[c.rank][:0]
	w.shared.mu.Unlock()
	c.clock.AdvanceTo(t)
	// Phase 2: the epoch closes for everyone at the global maximum.
	c.groupSync()
	c.clock.Advance(vclock.FromSeconds(c.prof.FenceCost))
	return nil
}

// Put transfers count instances of a datatype from origin memory into
// the target rank's window at targetOff bytes, like MPI_Put. The call
// returns once the origin buffer is reusable; remote completion is
// only guaranteed by the closing Fence.
func (w *Win) Put(origin buf.Block, count int, ty *datatype.Type, target int, targetOff int64) error {
	n := ty.PackSize(count)
	if err := w.checkAccess(target, targetOff, n); err != nil {
		return err
	}
	c := w.comm
	gather := c.cache.GatherCost(origin.Region(), c.internal.Region(), ty.Stats(count), memsim.Kernel{})
	c.clock.Advance(vclock.FromSeconds(c.prof.PutSetup + gather))
	wire := 0.0
	if n > 0 {
		wire = float64(n) / c.prof.OneSidedBW(n)
	}
	arrival := c.clock.Now() + dur(c.prof.NetLatency+wire)

	w.shared.mu.Lock()
	defer w.shared.mu.Unlock()
	if n > 0 {
		packer, err := ty.NewPacker(origin, count)
		if err != nil {
			return err
		}
		if _, err := packer.Pack(w.shared.blocks[target].Slice(int(targetOff), int(n))); err != nil {
			return err
		}
	}
	w.shared.pending[target] = append(w.shared.pending[target], winAccess{arrival: arrival})
	return nil
}

func (w *Win) checkAccess(target int, targetOff, n int64) error {
	if w.freed {
		return fmt.Errorf("%w: access on freed window", ErrWin)
	}
	c := w.comm
	if err := c.checkRank(target); err != nil {
		return err
	}
	w.shared.mu.Lock()
	defer w.shared.mu.Unlock()
	tblock := w.shared.blocks[target]
	if targetOff < 0 || targetOff+n > int64(tblock.Len()) {
		return fmt.Errorf("%w: access [%d,%d) outside %d-byte window of rank %d",
			ErrWin, targetOff, targetOff+n, tblock.Len(), target)
	}
	return nil
}

// Free releases the window collectively, like MPI_Win_free.
func (w *Win) Free() error {
	if w.freed {
		return fmt.Errorf("%w: double free", ErrWin)
	}
	w.freed = true
	c := w.comm
	c.groupSync()
	c.fabric.DropShared(fmt.Sprintf("win/%d/%d", c.ctx, w.seq))
	return nil
}

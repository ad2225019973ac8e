package core

import (
	"fmt"

	"repro/internal/buf"
	"repro/internal/mpi"
)

// Fixtures holds the payload fixtures of one grid of cells — schemes ×
// workloads measured by one ping-pong pair — so that what §3.2 puts
// outside the timing loop costs memory bandwidth once per grid instead
// of once per cell:
//
//   - one source block, pattern-filled once at the largest real
//     SrcBytes of the grid. The pattern depends on position only, so
//     every workload's source is a prefix of it; both ranks and every
//     scheme read it and nothing writes it;
//   - one expected packed payload per real workload, computed once by
//     the Type.Pack oracle — what Check compares the receive buffer
//     with, and what the reference scheme sends;
//   - per rank, one receive and one send block, recycled across cells.
//
// A hand-out of any of these is a view with a fresh buf.Region, so the
// cache-warmth model sees one allocation per buffer per cell, and a
// recycled block is cleared over the handed-out length, so a Check can
// never pass on a previous cell's bytes.
//
// Build the set before the ranks start; from then on the two ranks of
// the pair use it concurrently (shared parts read-only, scratch by
// rank). Virtual workloads need no fixture and are ignored.
type Fixtures struct {
	src  buf.Block
	want map[Workload]buf.Block
	// scratchCap is the length a rank's scratch block is allocated at
	// when first asked for: the largest real payload plus what the
	// buffered scheme's attached buffer adds.
	scratchCap int
	ranks      [2]rankScratch
}

// rankScratch is one rank's recycled memory. The send block serves
// whichever buffer the cell's scheme sends from: the gather/pack
// destination, or the Bsend backing store.
type rankScratch struct {
	recv, send []byte
}

// bsendSlack is what the buffered scheme attaches beyond the payload:
// one in-flight message's bookkeeping, like the paper's
// MPI_Buffer_attach before MPI_Bsend.
const bsendSlack = mpi.BsendOverheadBytes + 64

// NewFixtures builds the fixture set of the real workloads in ws.
func NewFixtures(ws []Workload) (*Fixtures, error) {
	fx := &Fixtures{want: make(map[Workload]buf.Block)}
	var srcBytes, payload int64
	for _, w := range ws {
		if w.Virtual {
			continue
		}
		if err := w.Validate(); err != nil {
			return nil, err
		}
		srcBytes = max(srcBytes, w.SrcBytes())
		payload = max(payload, w.Bytes())
	}
	fx.src = buf.AllocAligned(int(srcBytes))
	fx.src.FillPattern(srcSeed)
	fx.scratchCap = int(payload) + bsendSlack
	for _, w := range ws {
		if _, done := fx.want[w]; done || w.Virtual {
			continue
		}
		ty, err := w.VectorType()
		if err != nil {
			return nil, err
		}
		want := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(fx.src.Slice(0, int(w.SrcBytes())), 1, want); err != nil {
			return nil, err
		}
		fx.want[w] = want
	}
	return fx, nil
}

// NewRunner builds a Runner for a scheme whose Setup draws its buffers
// from the set. Setup then accepts only workloads the set was built
// for, on a two-rank communicator. A nil set gives the runner a
// private one per Setup, which is NewRunner.
func (fx *Fixtures) NewRunner(s Scheme) (Runner, error) {
	ps := pairState{shared: fx}
	switch s {
	case Reference:
		return &referenceRunner{pairState: ps}, nil
	case Copying:
		return &copyingRunner{pairState: ps}, nil
	case Buffered:
		return &bufferedRunner{pairState: ps}, nil
	case VectorType, Subarray:
		return &typedRunner{pairState: ps, scheme: s, send: (*mpi.Comm).SendType}, nil
	case OneSided:
		return &oneSidedRunner{pairState: ps}, nil
	case PackElement, PackVector, PackCompiled:
		return &packRunner{pairState: ps, scheme: s}, nil
	case Sendv:
		return &typedRunner{pairState: ps, scheme: s, send: (*mpi.Comm).SendvType}, nil
	case TypedPipelined:
		return &typedRunner{pairState: ps, scheme: s, send: (*mpi.Comm).SendpType}, nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", s)
	}
}

// view returns the first n bytes of shared read-only memory as a block
// of its own region.
func view(b buf.Block, n int64) buf.Block {
	return buf.FromBytes(b.Bytes()[:n:n])
}

// scratch hands out n zeroed bytes of a rank's scratch slot as a block
// of its own region.
func (fx *Fixtures) scratch(slot *[]byte, n int64) buf.Block {
	if *slot == nil {
		*slot = make([]byte, fx.scratchCap)
	} else {
		clear((*slot)[:n])
	}
	return buf.FromBytes((*slot)[:n:n])
}

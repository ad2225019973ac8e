package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/buf"
	"repro/internal/mpi"
	"repro/internal/oracle"
)

// fixtureWorkloads mixes the geometries a set must key apart: the
// canonical every-other-element family at three sizes, a wide block,
// a jittered layout, and a virtual workload the set ignores.
func fixtureWorkloads() []Workload {
	big := ForBytes(1 << 30)
	big.Virtual = true
	return []Workload{
		ForBytes(96 << 10),
		ForBytes(1000),
		{Count: 300, BlockLen: 4, Stride: 9},
		{Count: 200, BlockLen: 1, Stride: 8, Jitter: 0.5},
		big,
		ForBytes(8 << 10),
	}
}

// pingPongCell runs one verified cell of a scheme on a two-rank world.
func pingPongCell(fx *Fixtures, s Scheme, w Workload) error {
	return mpi.Run(2, mpi.Options{}, func(c *mpi.Comm) error {
		r, err := fx.NewRunner(s)
		if err != nil {
			return err
		}
		if err := r.Setup(c, w, 1-c.Rank()); err != nil {
			return err
		}
		if c.Rank() == 0 {
			err = r.Ping()
		} else if err = r.Pong(); err == nil {
			err = r.Check()
		}
		if err != nil {
			return fmt.Errorf("%v, %d bytes, rank %d: %w", s, w.Bytes(), c.Rank(), err)
		}
		return r.Teardown()
	})
}

// TestFixturesGridVerifiesAndLeavesSourceIntact runs every scheme over
// every workload of one set — private sets alongside — and then checks
// what the set promises: nobody wrote the shared source, and each
// expected payload is still the oracle's pack of it.
func TestFixturesGridVerifiesAndLeavesSourceIntact(t *testing.T) {
	ws := fixtureWorkloads()
	fx, err := NewFixtures(ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		for _, w := range ws {
			if s == Subarray && w.Jitter > 0 {
				continue // a subarray cannot describe a jittered layout
			}
			if err := pingPongCell(fx, s, w); err != nil {
				t.Fatalf("shared set: %v", err)
			}
			if err := pingPongCell(nil, s, w); err != nil {
				t.Fatalf("private set: %v", err)
			}
		}
	}
	if err := oracle.VerifyPattern(fx.src, srcSeed); err != nil {
		t.Fatalf("a scheme wrote the shared source: %v", err)
	}
	if got, want := int64(fx.src.Len()), ForBytes(96<<10).SrcBytes(); got != want {
		t.Errorf("source holds %d bytes, the largest real workload needs %d", got, want)
	}
	for _, w := range ws {
		want, ok := fx.want[w]
		if w.Virtual {
			if ok {
				t.Errorf("virtual workload %+v has an expected payload", w)
			}
			continue
		}
		ty, err := w.VectorType()
		if err != nil {
			t.Fatal(err)
		}
		src := buf.Alloc(int(w.SrcBytes()))
		src.FillPattern(srcSeed)
		again := buf.Alloc(int(w.Bytes()))
		if _, err := ty.Pack(src, 1, again); err != nil {
			t.Fatal(err)
		}
		if !buf.Equal(want, again) {
			t.Errorf("expected payload of %+v changed during the grid", w)
		}
	}
}

// TestScratchHandOutsAreFreshAndZero: after a verified cell has left a
// payload in a rank's scratch, the next hand-out of that memory reads
// all zero over its length, cannot reach past it, and has a region of
// its own; and a runner set up on it fails Check until it has received
// something.
func TestScratchHandOutsAreFreshAndZero(t *testing.T) {
	big, small := ForBytes(64<<10), ForBytes(24<<10)
	fx, err := NewFixtures([]Workload{big, small})
	if err != nil {
		t.Fatal(err)
	}
	if err := pingPongCell(fx, PackVector, big); err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, big.Bytes())
	for name, slot := range map[string]*[]byte{"receiver's recv": &fx.ranks[1].recv, "sender's send": &fx.ranks[0].send} {
		if bytes.Equal((*slot)[:big.Bytes()], zeros) {
			t.Fatalf("%s scratch holds no payload after a verified cell", name)
		}
		a := fx.scratch(slot, small.Bytes())
		if int64(a.Len()) != small.Bytes() || cap(a.Bytes()) != a.Len() || &a.Bytes()[0] != &(*slot)[0] {
			t.Errorf("%s: hand-out is not the first %d bytes of the slot", name, small.Bytes())
		}
		if !bytes.Equal(a.Bytes(), zeros[:a.Len()]) {
			t.Errorf("%s: recycled hand-out is not all zero", name)
		}
		if b := fx.scratch(slot, small.Bytes()); b.Region() == a.Region() {
			t.Errorf("%s: two hand-outs share region %d", name, a.Region())
		}
	}
	if a, b := view(fx.src, 64), view(fx.src, 64); a.Region() == b.Region() || a.Region() == fx.src.Region() {
		t.Error("views of the shared source share a region")
	}

	// Leave payloads behind again, then set every scheme up on the
	// recycled memory — and once on a private set — and expect Check to
	// fail on both ranks.
	if err := pingPongCell(fx, PackVector, big); err != nil {
		t.Fatal(err)
	}
	for _, set := range []*Fixtures{fx, nil} {
		for _, s := range Schemes() {
			err := mpi.Run(2, mpi.Options{}, func(c *mpi.Comm) error {
				r, err := set.NewRunner(s)
				if err != nil {
					return err
				}
				if err := r.Setup(c, small, 1-c.Rank()); err != nil {
					return err
				}
				if r.Check() == nil {
					return fmt.Errorf("%v rank %d: Check passed on a runner that has received nothing", s, c.Rank())
				}
				return r.Teardown()
			})
			if err != nil {
				t.Error(err)
			}
		}
	}
}

func TestSharedFixturesRejectForeignUse(t *testing.T) {
	fx, err := NewFixtures([]Workload{ForBytes(4096)})
	if err != nil {
		t.Fatal(err)
	}
	if err := pingPongCell(fx, VectorType, ForBytes(8192)); err == nil {
		t.Error("a workload the set was not built for was accepted")
	}
	err = mpi.Run(3, mpi.Options{}, func(c *mpi.Comm) error {
		r, _ := fx.NewRunner(VectorType)
		if r.Setup(c, ForBytes(4096), (c.Rank()+1)%3) == nil {
			return fmt.Errorf("rank %d of 3 was served by a pair's set", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	if _, err := NewFixtures([]Workload{{Count: 1, BlockLen: 4, Stride: 2}}); err == nil {
		t.Error("invalid workload accepted")
	}
}

// TestConcurrentGridsShareNothing runs two grids side by side; under
// -race any memory they shared would be reported.
func TestConcurrentGridsShareNothing(t *testing.T) {
	ws := []Workload{ForBytes(1000), ForBytes(40 << 10)}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fx, err := NewFixtures(ws)
			for _, s := range Schemes() {
				for _, w := range ws {
					if err == nil {
						err = pingPongCell(fx, s, w)
					}
				}
			}
			if err == nil {
				err = oracle.VerifyPattern(fx.src, srcSeed)
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("grid %d: %v", g, err)
		}
	}
}

// TestCopyingStridedLoop sends regular strides of several block
// lengths through the copying scheme's indexed loop and verifies them
// against the Type.Pack oracle.
func TestCopyingStridedLoop(t *testing.T) {
	for _, w := range []Workload{
		ForBytes(8), ForBytes(4096 + 8),
		{Count: 33, BlockLen: 1, Stride: 1},
		{Count: 17, BlockLen: 3, Stride: 5},
		{Count: 9, BlockLen: 8, Stride: 8},
		{Count: 0, BlockLen: 1, Stride: 2},
	} {
		fx, err := NewFixtures([]Workload{w})
		if err != nil {
			t.Fatal(err)
		}
		if err := pingPongCell(fx, Copying, w); err != nil {
			t.Errorf("%+v: %v", w, err)
		}
	}
}

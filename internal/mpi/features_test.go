package mpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
)

// bsend is the buffered send of a contiguous payload: BsendType over a
// byte view of b.
func bsend(c *Comm, b buf.Block, dest, tag int) error {
	count, ty, err := contigView(b.Len())
	if err != nil {
		return err
	}
	return c.BsendType(b, count, ty, dest, tag)
}

func TestBsendRoundTrip(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.BufferAttach(buf.Alloc(1 << 16)); err != nil {
				return err
			}
			b := buf.Alloc(1024)
			b.FillPattern(8)
			if err := bsend(c, b, 1, 0); err != nil {
				return err
			}
			if _, err := c.BufferDetach(); err != nil {
				return err
			}
			return nil
		}
		b := buf.Alloc(1024)
		if _, err := c.Recv(b, 0, 0); err != nil {
			return err
		}
		return oracle.VerifyPattern(b, 8)
	})
}

func TestBsendWithoutBufferFails(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := bsend(c, buf.Alloc(64), 1, 0); !errors.Is(err, ErrBsendBuffer) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestBsendBufferExhaustion(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			// Room for one 512-byte message plus overhead, not two.
			if err := c.BufferAttach(buf.Alloc(512 + BsendOverheadBytes + 32)); err != nil {
				return err
			}
			if err := bsend(c, buf.Alloc(512), 1, 0); err != nil {
				return err
			}
			if err := bsend(c, buf.Alloc(512), 1, 1); !errors.Is(err, ErrBsendBuffer) {
				t.Errorf("second Bsend err = %v, want ErrBsendBuffer", err)
			}
			// Let the receiver drain the first message, then detach.
			if _, err := c.BufferDetach(); err != nil {
				return err
			}
			return c.Send(buf.Alloc(0), 1, 9)
		}
		if _, err := c.Recv(buf.Alloc(512), 0, 0); err != nil {
			return err
		}
		_, err := c.Recv(buf.Alloc(0), 0, 9)
		return err
	})
}

func TestBsendTypePacksLayout(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 32, 1, 2)
		if c.Rank() == 0 {
			if err := c.BufferAttach(buf.Alloc(1 << 16)); err != nil {
				return err
			}
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(31)
			if err := c.BsendType(src, 1, ty, 1, 0); err != nil {
				return err
			}
			_, err := c.BufferDetach()
			return err
		}
		dst := buf.Alloc(int(ty.Size()))
		if _, err := c.Recv(dst, 0, 0); err != nil {
			return err
		}
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(31)
		want := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, want); err != nil {
			return err
		}
		if !buf.Equal(dst, want) {
			t.Error("Bsend payload differs from local pack")
		}
		return nil
	})
}

func TestBufferDetachWithoutAttach(t *testing.T) {
	run2(t, func(c *Comm) error {
		if _, err := c.BufferDetach(); !errors.Is(err, ErrBsendBuffer) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestDoubleAttachFails(t *testing.T) {
	run2(t, func(c *Comm) error {
		if err := c.BufferAttach(buf.Alloc(128)); err != nil {
			return err
		}
		if err := c.BufferAttach(buf.Alloc(128)); !errors.Is(err, ErrBsendBuffer) {
			t.Errorf("err = %v", err)
		}
		_, err := c.BufferDetach()
		return err
	})
}

func TestOneSidedPutFence(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 16, 1, 2)
		window := buf.Alloc(int(ty.Size()))
		w, err := c.WinCreate(window)
		if err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(21)
			if err := w.Put(src, 1, ty, 1, 0); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 1 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(21)
			want := buf.Alloc(int(ty.Size()))
			if _, err := ty.Pack(src, 1, want); err != nil {
				return err
			}
			if !buf.Equal(window, want) {
				t.Error("put payload differs")
			}
		}
		return w.Free()
	})
}

func TestPutOutsideWindowFails(t *testing.T) {
	run2(t, func(c *Comm) error {
		w, err := c.WinCreate(buf.Alloc(64))
		if err != nil {
			return err
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			ct, _ := datatype.Contiguous(128, datatype.Byte)
			_ = ct.Commit()
			if err := w.Put(buf.Alloc(128), 1, ct, 1, 0); !errors.Is(err, ErrWin) {
				t.Errorf("oversized put err = %v", err)
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		return w.Free()
	})
}

func TestFenceAfterFreeFails(t *testing.T) {
	run2(t, func(c *Comm) error {
		w, err := c.WinCreate(buf.Alloc(8))
		if err != nil {
			return err
		}
		if err := w.Free(); err != nil {
			return err
		}
		if err := w.Fence(); !errors.Is(err, ErrWin) {
			t.Errorf("fence-after-free err = %v", err)
		}
		return nil
	})
}

func TestOneSidedSmallMessageFenceDominated(t *testing.T) {
	// §4.4: for small messages one-sided transfer must be slower than
	// two-sided because of the fence overhead.
	var twoSided, oneSided float64
	err := Run(2, Options{WallLimit: 10 * time.Second}, func(c *Comm) error {
		b := buf.Alloc(1024)
		// Two-sided ping.
		start := c.Wtime()
		if c.Rank() == 0 {
			if err := c.Send(b, 1, 0); err != nil {
				return err
			}
		} else if _, err := c.Recv(b, 0, 0); err != nil {
			return err
		}
		c.Barrier()
		if c.Rank() == 0 {
			twoSided = c.Wtime() - start
		}
		// One-sided ping.
		w, err := c.WinCreate(buf.Alloc(1024))
		if err != nil {
			return err
		}
		start = c.Wtime()
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			ct, _ := datatype.Contiguous(1024, datatype.Byte)
			_ = ct.Commit()
			if err := w.Put(b, 1, ct, 1, 0); err != nil {
				return err
			}
		}
		if err := w.Fence(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			oneSided = c.Wtime() - start
		}
		return w.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	if oneSided <= twoSided {
		t.Fatalf("small one-sided (%g) should exceed two-sided (%g) (§4.4)", oneSided, twoSided)
	}
}

func TestIsendIrecvWait(t *testing.T) {
	run2(t, func(c *Comm) error {
		const n = 2048
		if c.Rank() == 0 {
			b := buf.Alloc(n)
			b.FillPattern(61)
			_, err := c.cisend(b, 1, 0).Wait()
			return err
		}
		b := buf.Alloc(n)
		st, err := c.cirecv(b, 0, 0).Wait()
		if err != nil {
			return err
		}
		if st.Count != n {
			t.Errorf("count = %d", st.Count)
		}
		return oracle.VerifyPattern(b, 61)
	})
}

func TestIsendPreservesOrderWithSend(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			big := int(c.Profile().EagerLimit) * 2
			a := buf.Alloc(big)
			a.FillPattern(1)
			req := c.cisend(a, 1, 4) // rendezvous, delivered first
			b := buf.Alloc(big)
			b.FillPattern(2)
			if err := c.Send(b, 1, 4); err != nil {
				return err
			}
			_, err := req.Wait()
			return err
		}
		big := int(c.Profile().EagerLimit) * 2
		b := buf.Alloc(big)
		if _, err := c.Recv(b, 0, 4); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, 1); err != nil {
			t.Errorf("Isend overtaken by Send: %v", err)
		}
		if _, err := c.Recv(b, 0, 4); err != nil {
			return err
		}
		return oracle.VerifyPattern(b, 2)
	})
}

func TestPackUnpackThroughComm(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 10, 1, 2)
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(3)
		out := buf.Alloc(int(ty.Size()) + 16)
		var pos int64
		if err := c.Pack(src, 1, ty, out, &pos); err != nil {
			return err
		}
		if pos != ty.Size() {
			t.Errorf("position = %d, want %d", pos, ty.Size())
		}
		back := buf.Alloc(int(ty.Extent()))
		pos = 0
		if err := c.Unpack(out, &pos, back, 1, ty); err != nil {
			return err
		}
		// Verify layout bytes survived.
		got := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(back, 1, got); err != nil {
			return err
		}
		want := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, want); err != nil {
			return err
		}
		if !buf.Equal(got, want) {
			t.Error("pack/unpack round trip lost bytes")
		}
		return nil
	})
}

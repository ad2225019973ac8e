package mpi

import (
	"errors"
	"testing"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
)

func TestTypedTruncationOnContigRecv(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 64, 1, 2) // 512-byte payload
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			return c.SendType(src, 1, ty, 1, 0)
		}
		_, err := c.Recv(buf.Alloc(256), 0, 0)
		if !errors.Is(err, ErrTruncate) {
			t.Errorf("err = %v, want ErrTruncate", err)
		}
		return nil
	})
}

func TestTypedTruncationOnTypedRecv(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(buf.Alloc(512), 1, 0)
		}
		ty := mustVec(t, 32, 1, 2) // only 256 bytes of room
		dst := buf.Alloc(int(ty.Extent()))
		_, err := c.RecvType(dst, 1, ty, 0, 0)
		if !errors.Is(err, ErrTruncate) {
			t.Errorf("err = %v, want ErrTruncate", err)
		}
		return nil
	})
}

func TestTypedSendUncommittedFails(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		ty, err := datatype.Vector(4, 1, 2, datatype.Float64)
		if err != nil {
			return err
		}
		// No Commit.
		err = c.SendType(buf.Alloc(64), 1, ty, 1, 0)
		if !errors.Is(err, datatype.ErrNotCommitted) {
			t.Errorf("err = %v, want ErrNotCommitted", err)
		}
		return nil
	})
}

func TestTypedSendBufferTooSmall(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		ty := mustVec(t, 64, 1, 2)
		err := c.SendType(buf.Alloc(8), 1, ty, 1, 0)
		if !errors.Is(err, datatype.ErrBounds) {
			t.Errorf("err = %v, want ErrBounds", err)
		}
		return nil
	})
}

func TestVirtualTypedRendezvous(t *testing.T) {
	run2(t, func(c *Comm) error {
		// 64 MB typed payload, never materialised, over rendezvous
		// with the full chunk loop.
		count := 8 << 20
		ty := mustVec(t, count, 1, 2)
		if c.Rank() == 0 {
			src := buf.Virtual(int(ty.Extent()))
			if err := c.SendType(src, 1, ty, 1, 0); err != nil {
				return err
			}
			if got := c.Counters().RendezvousSends; got != 1 {
				t.Errorf("expected a rendezvous send, counters = %+v", c.Counters())
			}
			return nil
		}
		st, err := c.Recv(buf.Virtual(count*8), 0, 0)
		if err != nil {
			return err
		}
		if st.Count != int64(count*8) {
			t.Errorf("count = %d", st.Count)
		}
		return nil
	})
}

func TestTypedCountRepetition(t *testing.T) {
	// Send 3 instances of a small vector type; instance i lands at
	// i*extent.
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 4, 1, 2) // 32 B payload, 56 B extent
		const count = 3
		need := int(int64(count-1)*ty.Extent()) + int(ty.TrueExtent())
		if c.Rank() == 0 {
			src := buf.Alloc(need)
			src.FillPattern(7)
			return c.SendType(src, count, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Size()) * count)
		if _, err := c.Recv(dst, 0, 0); err != nil {
			return err
		}
		src := buf.Alloc(need)
		src.FillPattern(7)
		want := buf.Alloc(int(ty.Size()) * count)
		if _, err := ty.Pack(src, count, want); err != nil {
			return err
		}
		if !buf.Equal(dst, want) {
			t.Error("multi-count typed payload differs")
		}
		return nil
	})
}

func TestCollectivesOnSplitComm(t *testing.T) {
	runN(t, 6, func(c *Comm) error {
		// Two groups of 3; each does its own Bcast and Allgather with
		// the same tags concurrently.
		grp, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		b := buf.Alloc(64)
		if grp.Rank() == 0 {
			b.FillPattern(byte(40 + c.Rank()%2))
		}
		if err := grp.Bcast(b, 0); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, byte(40+c.Rank()%2)); err != nil {
			t.Errorf("group %d rank %d: %v", c.Rank()%2, grp.Rank(), err)
		}
		send := buf.Alloc(8)
		send.FillPattern(byte(grp.Rank()))
		recv := buf.Alloc(8 * grp.Size())
		if err := grp.Allgather(send, recv); err != nil {
			return err
		}
		for r := 0; r < grp.Size(); r++ {
			if err := oracle.VerifyPattern(recv.Slice(r*8, 8), byte(r)); err != nil {
				t.Errorf("allgather slot %d: %v", r, err)
			}
		}
		grp.Barrier()
		return nil
	})
}

func TestSsendTypeRendezvous(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 8, 1, 2) // tiny, would be eager normally
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			if err := c.SsendType(src, 1, ty, 1, 0); err != nil {
				return err
			}
			if got := c.Counters().RendezvousSends; got != 1 {
				t.Errorf("SsendType not rendezvous: %+v", c.Counters())
			}
			return nil
		}
		_, err := c.Recv(buf.Alloc(int(ty.Size())), 0, 0)
		return err
	})
}

func TestChargeAdvancesClock(t *testing.T) {
	run2(t, func(c *Comm) error {
		before := c.Wtime()
		c.Charge(1e-3)
		if got := c.Wtime() - before; got < 0.99e-3 || got > 1.01e-3 {
			t.Errorf("Charge(1ms) advanced %g", got)
		}
		return nil
	})
}

// TestNegativeCountRejected: every typed send and receive entry point —
// blocking, I, S, B, p and v forms —, the typed collectives, Win.Put
// and the explicit pack calls reject a negative count with ErrCount,
// and a nil type with datatype.ErrArgument, before anything reaches
// the fabric or the clock. The "/recv" and "/send" collective entries
// pass a valid type on the other side, so the slot check rejects the
// input.
func TestNegativeCountRejected(t *testing.T) {
	b := buf.Alloc(64)
	counts, displs := []int{1, 1}, []int{0, 1}
	word := mustVec(t, 1, 1, 1)
	req := func(_ *Request, err error) error { return err }
	var wins [2]*Win
	entries := []struct {
		name string
		call func(c *Comm, n int, ty *datatype.Type) error
	}{
		{"SendType", func(c *Comm, n int, ty *datatype.Type) error { return c.SendType(b, n, ty, 1, 0) }},
		{"IsendType", func(c *Comm, n int, ty *datatype.Type) error { return req(c.IsendType(b, n, ty, 1, 0)) }},
		{"SsendType", func(c *Comm, n int, ty *datatype.Type) error { return c.SsendType(b, n, ty, 1, 0) }},
		{"BsendType", func(c *Comm, n int, ty *datatype.Type) error { return c.BsendType(b, n, ty, 1, 0) }},
		{"SendpType", func(c *Comm, n int, ty *datatype.Type) error { return c.SendpType(b, n, ty, 1, 0) }},
		{"SendvType", func(c *Comm, n int, ty *datatype.Type) error { return c.SendvType(b, n, ty, 1, 0) }},
		{"IsendvType", func(c *Comm, n int, ty *datatype.Type) error { return req(c.IsendvType(b, n, ty, 1, 0)) }},
		{"RecvType", func(c *Comm, n int, ty *datatype.Type) error { _, err := c.RecvType(b, n, ty, 1, 0); return err }},
		{"IrecvType", func(c *Comm, n int, ty *datatype.Type) error { return req(c.IrecvType(b, n, ty, 1, 0)) }},
		{"BcastType", func(c *Comm, n int, ty *datatype.Type) error { return c.BcastType(b, n, ty, 0) }},
		{"GatherType", func(c *Comm, n int, ty *datatype.Type) error { return c.GatherType(b, n, ty, b, 1, ty, 0) }},
		{"GathervType", func(c *Comm, n int, ty *datatype.Type) error {
			return c.GathervType(b, n, ty, b, counts, displs, ty, 0)
		}},
		{"ScattervType", func(c *Comm, n int, ty *datatype.Type) error {
			return c.ScattervType(b, counts, displs, ty, b, n, ty, 0)
		}},
		{"AllgatherType", func(c *Comm, n int, ty *datatype.Type) error { return c.AllgatherType(b, n, ty, b, 1, ty) }},
		{"GatherType/recv", func(c *Comm, n int, ty *datatype.Type) error { return c.GatherType(b, 1, word, b, n, ty, 0) }},
		{"AllgatherType/recv", func(c *Comm, n int, ty *datatype.Type) error { return c.AllgatherType(b, 1, word, b, n, ty) }},
		{"ScattervType/send", func(c *Comm, n int, ty *datatype.Type) error {
			return c.ScattervType(b, []int{n, n}, displs, ty, b, 1, word, 0)
		}},
		{"Put", func(c *Comm, n int, ty *datatype.Type) error { return wins[c.Rank()].Put(b, n, ty, 1, 0) }},
		{"Pack", func(c *Comm, n int, ty *datatype.Type) error { var pos int64; return c.Pack(b, n, ty, b, &pos) }},
		{"Unpack", func(c *Comm, n int, ty *datatype.Type) error { var pos int64; return c.Unpack(b, &pos, b, n, ty) }},
		{"PackCompiled", func(c *Comm, n int, ty *datatype.Type) error { var pos int64; return c.PackCompiled(b, n, ty, b, &pos) }},
	}
	inputs := []struct {
		name  string
		count int
		ty    *datatype.Type
		want  error
	}{{"count -1", -1, mustVec(t, 4, 1, 2), ErrCount}, {"nil type", 1, nil, datatype.ErrArgument}}
	run2(t, func(c *Comm) error {
		w, err := c.WinCreate(buf.Alloc(64))
		if err != nil {
			return err
		}
		wins[c.Rank()] = w
		if c.Rank() == 0 {
			for _, in := range inputs {
				for _, e := range entries {
					before := c.Wtime()
					if err := e.call(c, in.count, in.ty); !errors.Is(err, in.want) {
						t.Errorf("%s(%s) = %v, want %v", e.name, in.name, err, in.want)
					}
					if c.Wtime() != before {
						t.Errorf("%s(%s) advanced the clock by %g s", e.name, in.name, c.Wtime()-before)
					}
				}
			}
		}
		return w.Free()
	})
}

func TestEagerTypedSendUsesOneChunk(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 16, 1, 2) // 128 B, far under the limit
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			if err := c.SendType(src, 1, ty, 1, 0); err != nil {
				return err
			}
			if got := c.Counters().EagerSends; got != 1 {
				t.Errorf("small typed send not eager: %+v", c.Counters())
			}
			return nil
		}
		_, err := c.Recv(buf.Alloc(int(ty.Size())), 0, 0)
		return err
	})
}

package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// ssend, ssendp and ssendv are the forced-rendezvous contiguous,
// pipelined typed and fused typed sends: even an eager-sized payload
// takes the handshake.
func ssend(c *Comm, b buf.Block, dest, tag int) error {
	return c.sendContig(b, dest, tag, sendFlags{forceRdv: true})
}

func ssendp(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	return c.sendTyped(b, count, ty, dest, tag, sendFlags{forceRdv: true, pipelined: true})
}

func ssendv(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error {
	return c.sendTypedFused(b, count, ty, dest, tag, sendFlags{forceRdv: true})
}

// run2 runs a two-rank job with the generic profile and a watchdog.
func run2(t *testing.T, body func(c *Comm) error) {
	t.Helper()
	err := Run(2, Options{WallLimit: 30 * time.Second}, body)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := Run(0, Options{}, func(*Comm) error { return nil }); err == nil {
		t.Fatal("zero-size world accepted")
	}
}

func TestRankAndSize(t *testing.T) {
	seen := make([]bool, 4)
	err := Run(4, Options{WallLimit: 10 * time.Second}, func(c *Comm) error {
		if c.Size() != 4 {
			t.Errorf("size = %d", c.Size())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Fatalf("rank %d never ran", r)
		}
	}
}

func TestSendRecvSmall(t *testing.T) {
	run2(t, func(c *Comm) error {
		const n = 1024
		if c.Rank() == 0 {
			b := buf.Alloc(n)
			b.FillPattern(42)
			return c.Send(b, 1, 7)
		}
		b := buf.Alloc(n)
		st, err := c.Recv(b, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Count != n {
			t.Errorf("status = %+v", st)
		}
		return oracle.VerifyPattern(b, 42)
	})
}

func TestSendRecvLargeRendezvous(t *testing.T) {
	run2(t, func(c *Comm) error {
		n := int(c.Profile().EagerLimit) * 4
		if c.Rank() == 0 {
			b := buf.Alloc(n)
			b.FillPattern(3)
			if err := c.Send(b, 1, 0); err != nil {
				return err
			}
			if got := c.Counters().RendezvousSends; got != 1 {
				t.Errorf("rendezvous sends = %d, want 1", got)
			}
			return nil
		}
		b := buf.Alloc(n)
		if _, err := c.Recv(b, 0, 0); err != nil {
			return err
		}
		return oracle.VerifyPattern(b, 3)
	})
}

func TestEagerProtocolSelected(t *testing.T) {
	run2(t, func(c *Comm) error {
		n := int(c.Profile().EagerLimit) / 2
		if c.Rank() == 0 {
			b := buf.Alloc(n)
			if err := c.Send(b, 1, 0); err != nil {
				return err
			}
			cnt := c.Counters()
			if cnt.EagerSends != 1 || cnt.RendezvousSends != 0 {
				t.Errorf("counters = %+v", cnt)
			}
			return nil
		}
		_, err := c.Recv(buf.Alloc(n), 0, 0)
		return err
	})
}

// TestSendRecvSplitMove: a contiguous rendezvous of 4 MiB + 8 bytes,
// which the drain moves split across the pack workers, lands the exact
// pattern through a blocking Send/Recv pair and a non-blocking pair.
func TestSendRecvSplitMove(t *testing.T) {
	const n = datatype.ParallelPackThreshold + 8
	run2(t, func(c *Comm) error {
		b := buf.Alloc(n)
		if c.Rank() == 0 {
			b.FillPattern(5)
			if err := c.Send(b, 1, 0); err != nil {
				return err
			}
			_, err := c.cisend(b, 1, 1).Wait()
			return err
		}
		if _, err := c.Recv(b, 0, 0); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, 5); err != nil {
			return fmt.Errorf("Send/Recv: %w", err)
		}
		b.Zero()
		if _, err := c.cirecv(b, 0, 1).Wait(); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, 5); err != nil {
			return fmt.Errorf("Isend/Irecv: %w", err)
		}
		return nil
	})
}

func TestSendBufferReusableAfterEagerSend(t *testing.T) {
	// Eager semantics: the sender may overwrite its buffer right after
	// Send returns without corrupting the message.
	run2(t, func(c *Comm) error {
		const n = 256
		if c.Rank() == 0 {
			b := buf.Alloc(n)
			b.FillPattern(9)
			if err := c.Send(b, 1, 0); err != nil {
				return err
			}
			b.FillPattern(77) // scribble
			return c.Send(b, 1, 1)
		}
		b := buf.Alloc(n)
		if _, err := c.Recv(b, 0, 0); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, 9); err != nil {
			t.Errorf("first message corrupted by sender reuse: %v", err)
		}
		_, err := c.Recv(b, 0, 1)
		return err
	})
}

func TestMessageOrderingSameTag(t *testing.T) {
	run2(t, func(c *Comm) error {
		const k = 8
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				b := buf.Alloc(64)
				b.FillPattern(byte(i))
				if err := c.Send(b, 1, 5); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			b := buf.Alloc(64)
			if _, err := c.Recv(b, 0, 5); err != nil {
				return err
			}
			if err := oracle.VerifyPattern(b, byte(i)); err != nil {
				t.Errorf("message %d out of order: %v", i, err)
			}
		}
		return nil
	})
}

func TestTagSelectivity(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			a := buf.Alloc(8)
			a.FillPattern(1)
			bb := buf.Alloc(8)
			bb.FillPattern(2)
			if err := c.Send(a, 1, 10); err != nil {
				return err
			}
			return c.Send(bb, 1, 20)
		}
		// Receive tag 20 first although tag 10 arrived first.
		b := buf.Alloc(8)
		if _, err := c.Recv(b, 0, 20); err != nil {
			return err
		}
		if err := oracle.VerifyPattern(b, 2); err != nil {
			return err
		}
		if _, err := c.Recv(b, 0, 10); err != nil {
			return err
		}
		return oracle.VerifyPattern(b, 1)
	})
}

func TestAnySourceAnyTag(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			b := buf.Alloc(32)
			b.FillPattern(5)
			return c.Send(b, 1, 3)
		}
		b := buf.Alloc(32)
		st, err := c.Recv(b, AnySource, AnyTag)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 3 {
			t.Errorf("wildcard status = %+v", st)
		}
		return oracle.VerifyPattern(b, 5)
	})
}

func TestRecvTruncation(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(buf.Alloc(128), 1, 0)
		}
		_, err := c.Recv(buf.Alloc(64), 0, 0)
		if !errors.Is(err, ErrTruncate) {
			t.Errorf("err = %v, want ErrTruncate", err)
		}
		return nil
	})
}

func TestInvalidRankAndTag(t *testing.T) {
	run2(t, func(c *Comm) error {
		if err := c.Send(buf.Alloc(1), 99, 0); !errors.Is(err, ErrRank) {
			t.Errorf("bad rank err = %v", err)
		}
		if err := c.Send(buf.Alloc(1), 0, -3); !errors.Is(err, ErrTag) {
			t.Errorf("bad tag err = %v", err)
		}
		return nil
	})
}

func TestSendTypeVector(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 100, 1, 2)
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(13)
			return c.SendType(src, 1, ty, 1, 0)
		}
		// Contiguous receive of the packed payload, like the paper's
		// target process (§3.2).
		dst := buf.Alloc(int(ty.Size()))
		st, err := c.Recv(dst, 0, 0)
		if err != nil {
			return err
		}
		if st.Count != ty.Size() {
			t.Errorf("count = %d, want %d", st.Count, ty.Size())
		}
		// Verify against a local pack of the same pattern.
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(13)
		want := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, want); err != nil {
			return err
		}
		if !buf.Equal(dst, want) {
			t.Error("typed payload differs from local pack")
		}
		return nil
	})
}

func TestSendTypeLargeChunked(t *testing.T) {
	run2(t, func(c *Comm) error {
		count := int(c.Profile().EagerLimit) // bytes*? ensure > eager limit after packing
		ty := mustVec(t, count, 1, 2)        // count*8 bytes payload
		if c.Rank() == 0 {
			src := buf.Alloc(int(ty.Extent()))
			src.FillPattern(29)
			return c.SendType(src, 1, ty, 1, 0)
		}
		dst := buf.Alloc(int(ty.Size()))
		if _, err := c.Recv(dst, 0, 0); err != nil {
			return err
		}
		src := buf.Alloc(int(ty.Extent()))
		src.FillPattern(29)
		want := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(src, 1, want); err != nil {
			return err
		}
		if !buf.Equal(dst, want) {
			t.Error("chunked typed payload differs")
		}
		return nil
	})
}

func TestRecvTypeScatters(t *testing.T) {
	run2(t, func(c *Comm) error {
		ty := mustVec(t, 64, 1, 2)
		if c.Rank() == 0 {
			packed := buf.Alloc(int(ty.Size()))
			packed.FillPattern(17)
			return c.Send(packed, 1, 0)
		}
		dst := buf.Alloc(int(ty.Extent()))
		if _, err := c.RecvType(dst, 1, ty, 0, 0); err != nil {
			return err
		}
		// Re-pack locally; must reproduce the wire payload.
		got := buf.Alloc(int(ty.Size()))
		if _, err := ty.Pack(dst, 1, got); err != nil {
			return err
		}
		want := buf.Alloc(int(ty.Size()))
		want.FillPattern(17)
		if !buf.Equal(got, want) {
			t.Error("typed receive scattered wrong bytes")
		}
		return nil
	})
}

func TestSsendForcesRendezvous(t *testing.T) {
	run2(t, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := ssend(c, buf.Alloc(16), 1, 0); err != nil {
				return err
			}
			if got := c.Counters().RendezvousSends; got != 1 {
				t.Errorf("Ssend used protocol other than rendezvous: %+v", c.Counters())
			}
			return nil
		}
		_, err := c.Recv(buf.Alloc(16), 0, 0)
		return err
	})
}

func TestVirtualPayloadTransfersCounted(t *testing.T) {
	run2(t, func(c *Comm) error {
		const n = 1 << 28 // 256 MB, never materialised
		if c.Rank() == 0 {
			return c.Send(buf.Virtual(n), 1, 0)
		}
		st, err := c.Recv(buf.Virtual(n), 0, 0)
		if err != nil {
			return err
		}
		if st.Count != n {
			t.Errorf("count = %d", st.Count)
		}
		if c.Wtime() <= 0 {
			t.Error("virtual transfer advanced no time")
		}
		return nil
	})
}

func TestPingPongDeterministic(t *testing.T) {
	times := make([]float64, 2)
	for trial := 0; trial < 2; trial++ {
		var measured float64
		err := Run(2, Options{WallLimit: 10 * time.Second}, func(c *Comm) error {
			const n = 1 << 20
			b := buf.Alloc(n)
			pong := buf.Alloc(0)
			if c.Rank() == 0 {
				start := c.Wtime()
				for i := 0; i < 5; i++ {
					if err := c.Send(b, 1, 0); err != nil {
						return err
					}
					if _, err := c.Recv(pong, 1, 1); err != nil {
						return err
					}
				}
				measured = c.Wtime() - start
				return nil
			}
			for i := 0; i < 5; i++ {
				if _, err := c.Recv(b, 0, 0); err != nil {
					return err
				}
				if err := c.Send(pong, 0, 1); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		times[trial] = measured
	}
	if times[0] != times[1] {
		t.Fatalf("virtual time not deterministic: %v vs %v", times[0], times[1])
	}
	if times[0] <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestRankPanicIsReported(t *testing.T) {
	err := Run(1, Options{WallLimit: 10 * time.Second}, func(c *Comm) error {
		panic("boom")
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestWatchdogFiresOnDeadlock(t *testing.T) {
	err := Run(2, Options{WallLimit: 200 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			_, err := c.Recv(buf.Alloc(1), 1, 0) // never sent
			return err
		}
		return nil
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestWatchdogUnwindsUntrackedRanks: rank 0 parks at each blocking
// site while rank 1 leaves it there — a receive, a barrier, a
// rendezvous send never matched (rdv-match), a raw rendezvous envelope
// matched but never completed (rdv-done), a non-blocking receive's
// Wait, and a BufferDetach behind a buffered send nobody receives. With
// and without the quiescence detector, the run ends with ErrDeadlock
// and leaves no goroutine behind: every wait unwinds on the abort.
func TestWatchdogUnwindsUntrackedRanks(t *testing.T) {
	big := 1 << 20 // past every eager limit
	for _, tc := range []struct {
		name  string
		stuck func(c *Comm) error
		peer  func(c *Comm) error
	}{
		{"recv", func(c *Comm) error {
			_, err := c.Recv(buf.Alloc(1), 1, 0) // never sent
			return err
		}, nil},
		{"barrier", func(c *Comm) error {
			c.Barrier() // never joined; the barrier itself returns no error
			return nil
		}, nil},
		{"rdv-match", func(c *Comm) error {
			return c.Send(buf.Virtual(big), 1, 0) // never received
		}, nil},
		{"rdv-done", func(c *Comm) error {
			_, err := c.Recv(buf.Alloc(64), 1, 0)
			return err
		}, func(c *Comm) error {
			// A raw rendezvous notice whose sender never streams.
			m := simnet.NewRendezvous()
			m.Src, m.Bytes = 1, 64
			c.fabric.Deliver(0, m)
			return nil
		}},
		{"wait", func(c *Comm) error {
			_, err := c.cirecv(buf.Alloc(8), 1, 0).Wait() // never sent
			return err
		}, nil},
		{"bsend-detach", func(c *Comm) error {
			if err := c.BufferAttach(buf.Alloc(1024)); err != nil {
				return err
			}
			if err := c.BsendType(buf.Alloc(8), 8, datatype.Byte, 1, 0); err != nil {
				return err
			}
			_, err := c.BufferDetach() // never drained
			return err
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, detect := range []bool{false, true} {
				t.Run(fmt.Sprintf("detect=%v", detect), func(t *testing.T) {
					before := runtime.NumGoroutine()
					err := Run(2, Options{WallLimit: 100 * time.Millisecond, DetectDeadlock: detect}, func(c *Comm) error {
						if c.Rank() == 0 {
							return tc.stuck(c)
						}
						if tc.peer != nil {
							return tc.peer(c)
						}
						return nil
					})
					if !errors.Is(err, ErrDeadlock) {
						t.Fatalf("err = %v, want ErrDeadlock", err)
					}
					settleGoroutines(t, before)
				})
			}
		})
	}
}

// settleGoroutines fails t unless the goroutine count falls back to
// before within five seconds.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after the run, %d before", n, before)
	}
}

func mustVec(t *testing.T, count, blocklen, stride int) *datatype.Type {
	t.Helper()
	ty, err := datatype.Vector(count, blocklen, stride, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	return ty
}

func TestProfilesAllRunPingPong(t *testing.T) {
	for _, name := range perfmodel.Names() {
		p, err := perfmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		err = Run(2, Options{Profile: p, WallLimit: 10 * time.Second}, func(c *Comm) error {
			b := buf.Alloc(4096)
			if c.Rank() == 0 {
				if err := c.Send(b, 1, 0); err != nil {
					return err
				}
				_, err := c.Recv(buf.Alloc(0), 1, 1)
				return err
			}
			if _, err := c.Recv(b, 0, 0); err != nil {
				return err
			}
			return c.Send(buf.Alloc(0), 0, 1)
		})
		if err != nil {
			t.Errorf("profile %s: %v", name, err)
		}
	}
}

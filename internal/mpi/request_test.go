package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/elem"
)

// everyOtherBuf is everyOther with the user-buffer size of one instance.
func everyOtherBuf(tb testing.TB, n int) (*datatype.Type, int) {
	ty := everyOther(tb, n)
	return ty, typedNeed(ty, 1)
}

// issendv starts a non-blocking fused send under forced rendezvous:
// even an eager-sized payload takes the fused handshake path.
func issendv(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) *Request {
	return c.startAsyncSend(&Request{kind: opSendFused, b: b, count: count, ty: ty, peer: dest, tag: tag,
		fl: sendFlags{forceRdv: true}})
}

// TestAsyncAllocBudget pins what one transfer allocates, both sides
// together, on a clean fabric with virtual payloads: for a non-blocking
// pair a request and its goroutine's closure per side, the envelope,
// and the typed receiver's layout descriptor; for a blocking typed
// rendezvous the envelope, the sender's packer and the receiver's
// unpacker. The counts
// are deterministic (no wall threshold) and equal at every GOMAXPROCS;
// before the request diet the typed non-blocking pair cost 20 objects
// and the contiguous pair 14. A send engine whose per-transfer state
// escapes to the heap fails here first.
func TestAsyncAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ty, need := everyOtherBuf(t, 1<<17) // 1 MiB of data: rendezvous everywhere
	wait := func(req *Request, err error) error {
		if err == nil {
			_, err = req.Wait()
		}
		return err
	}
	recvType := func(c *Comm) error {
		_, err := c.RecvType(buf.Virtual(need), 1, ty, 0, 0)
		return err
	}
	rows := []struct {
		name   string
		budget float64
		send   func(c *Comm) error
		recv   func(c *Comm) error
	}{
		{"IsendvType+IrecvType rendezvous", 6,
			func(c *Comm) error { return wait(c.IsendvType(buf.Virtual(need), 1, ty, 1, 0)) },
			func(c *Comm) error { return wait(c.IrecvType(buf.Virtual(need), 1, ty, 0, 0)) }},
		{"Isend+Irecv eager", 5,
			func(c *Comm) error { return wait(c.cisend(buf.Virtual(1024), 1, 0), nil) },
			func(c *Comm) error { return wait(c.cirecv(buf.Virtual(1024), 0, 0), nil) }},
		{"SendType+RecvType rendezvous", 3,
			func(c *Comm) error { return c.SendType(buf.Virtual(need), 1, ty, 1, 0) }, recvType},
		{"SendpType+RecvType rendezvous", 3,
			func(c *Comm) error { return c.SendpType(buf.Virtual(need), 1, ty, 1, 0) }, recvType},
	}
	for _, row := range rows {
		const runs = 200
		var allocs float64
		run2(t, func(c *Comm) error {
			start := row.send
			if c.Rank() == 1 {
				start = row.recv
			}
			var opErr error
			transfer := func() {
				if err := start(c); err != nil && opErr == nil {
					opErr = err
				}
				// Both sides' allocations of a transfer fall inside the
				// window AllocsPerRun measures on rank 0.
				c.Barrier()
			}
			if c.Rank() == 0 {
				allocs = testing.AllocsPerRun(runs, transfer)
				return opErr
			}
			for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call + runs
				transfer()
			}
			return opErr
		})
		t.Logf("%s: %.0f allocs per transfer", row.name, allocs)
		if allocs > row.budget {
			t.Errorf("%s: %.0f allocs per transfer, budget %.0f", row.name, allocs, row.budget)
		}
	}
}

// TestIsendProgramOrder is MPI's non-overtaking rule across the
// blocking/non-blocking boundary: an Isend followed by a blocking Send
// on one (dest, tag), and 64 back-to-back IsendvTypes on one tag,
// arrive in program order — eager and rendezvous, with and without the
// quiescence tracker.
func TestIsendProgramOrder(t *testing.T) {
	const burst = 64
	ty, need := everyOtherBuf(t, 4)
	for _, tracked := range []bool{false, true} {
		for _, rdv := range []bool{false, true} {
			t.Run(fmt.Sprintf("tracked=%v/rendezvous=%v", tracked, rdv), func(t *testing.T) {
				opts := Options{WallLimit: 30 * time.Second, DetectDeadlock: tracked}
				err := Run(2, opts, func(c *Comm) error {
					n := 64
					if rdv {
						n = int(c.Profile().EagerLimit) * 2
					}
					if c.Rank() == 0 {
						first, second := buf.Alloc(n), buf.Alloc(n)
						elem.PutInt64(first, 0, 1)
						elem.PutInt64(second, 0, 2)
						reqs := []*Request{c.cisend(first, 1, 7)}
						if err := c.Send(second, 1, 7); err != nil {
							return err
						}
						for i := 0; i < burst; i++ {
							b := buf.Alloc(need)
							elem.PutFloat64(b, 0, float64(i))
							if rdv {
								reqs = append(reqs, issendv(c, b, 1, ty, 1, 9))
								continue
							}
							req, err := c.IsendvType(b, 1, ty, 1, 9)
							if err != nil {
								return err
							}
							reqs = append(reqs, req)
						}
						for _, req := range reqs {
							if _, err := req.Wait(); err != nil {
								return err
							}
						}
						return nil
					}
					b := buf.Alloc(n)
					for want := int64(1); want <= 2; want++ {
						if _, err := c.Recv(b, 0, 7); err != nil {
							return err
						}
						if got := elem.Int64(b, 0); got != want {
							return fmt.Errorf("message %d arrived in position %d", got, want)
						}
					}
					tb := buf.Alloc(need)
					for i := 0; i < burst; i++ {
						if _, err := c.RecvType(tb, 1, ty, 0, 9); err != nil {
							return err
						}
						if got := elem.Float64(tb, 0); got != float64(i) {
							return fmt.Errorf("typed message %g arrived in position %d", got, i)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestIsendFailedPostLeavesNoSignal: a non-blocking send that fails
// before its envelope enters the fabric (buffer too short for the
// layout) still releases its starter, and leaves the rank's delivery
// signal empty, so the next Isend on the communicator is not released
// early and completes normally.
func TestIsendFailedPostLeavesNoSignal(t *testing.T) {
	ty, need := everyOtherBuf(t, 1<<14)
	run2(t, func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.RecvType(buf.Alloc(need), 1, ty, 0, 0)
			return err
		}
		bad := issendv(c, buf.Alloc(need/2), 1, ty, 1, 0)
		if n := len(c.posted); n != 0 {
			return fmt.Errorf("%d stale delivery tokens after a failed post", n)
		}
		if _, err := bad.Wait(); !errors.Is(err, datatype.ErrBounds) {
			return fmt.Errorf("short-buffer Isend finished with %v, want ErrBounds", err)
		}
		good := issendv(c, buf.Alloc(need), 1, ty, 1, 0)
		if n := len(c.posted); n != 0 {
			return fmt.Errorf("%d stale delivery tokens after a good post", n)
		}
		_, err := good.Wait()
		return err
	})
}

// TestRequestClockPrivateUntilWait: the background half advances its
// own clock; the owner's does not move between Isend's return and Wait,
// which folds the half's time in. A second Wait is typed misuse that
// still carries what the request finished with.
func TestRequestClockPrivateUntilWait(t *testing.T) {
	run2(t, func(c *Comm) error {
		n := int(c.Profile().EagerLimit) * 4
		if c.Rank() == 1 {
			// Half the sender's size: the rendezvous completes truncated.
			_, err := c.Recv(buf.Alloc(n/2), 0, 0)
			if !errors.Is(err, ErrTruncate) {
				return fmt.Errorf("short receive = %v, want ErrTruncate", err)
			}
			return nil
		}
		before := c.Wtime()
		req := c.cisend(buf.Alloc(n), 1, 0)
		// Give the half every chance to run to completion first.
		for !req.completed.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		if now := c.Wtime(); now != before {
			return fmt.Errorf("owner clock moved %g -> %g before Wait", before, now)
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		if now := c.Wtime(); now <= before {
			return fmt.Errorf("Wait folded no time in: %g -> %g", before, now)
		}
		_, werr := req.Wait()
		var rse *RequestStateError
		if !errors.As(werr, &rse) || !errors.Is(werr, ErrRequestInactive) || rse.Prior != nil {
			return fmt.Errorf("double Wait = %v, want RequestStateError/ErrRequestInactive with no prior error", werr)
		}
		return nil
	})
	// A request that finished with an error reports it as Prior.
	ty, need := everyOtherBuf(t, 64)
	run2(t, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		req, err := c.IsendvType(buf.Alloc(need/2), 1, ty, 1, 0)
		if err != nil {
			return err
		}
		_, first := req.Wait()
		_, werr := req.Wait()
		var rse *RequestStateError
		if first == nil || !errors.As(werr, &rse) || !errors.Is(werr, ErrRequestInactive) || rse.Prior != first {
			return fmt.Errorf("double Wait = %v after %v, want the first error as Prior", werr, first)
		}
		return nil
	})
}

// TestTwoLevelMemo: the memoised node grouping equals a fresh build —
// for the world (whose grouping every rank shares), a scattered Split
// and a contiguous Split.
func TestTwoLevelMemo(t *testing.T) {
	const size, nodeSize = 16, 4
	worlds := make([]*nodeGroups, size)
	runHier(t, size, nodeSize, func(c *Comm) error {
		check := func(what string, cc *Comm) error {
			got, again := cc.twoLevel(), cc.twoLevel()
			want := groupByNode(cc.prof, cc.size, cc.members)
			if got != again {
				return fmt.Errorf("%s: grouping rebuilt on the second call", what)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("%s: memo %v, fresh build %v", what, got, want)
			}
			return nil
		}
		if err := check("world", c); err != nil {
			return err
		}
		worlds[c.Rank()] = c.twoLevel()
		// Keys interleave the two halves of the world, so consecutive
		// comm ranks alternate between nodes.
		scattered, err := c.Split(c.Rank()%2, c.Rank()%8)
		if err != nil {
			return err
		}
		if err := check("scattered split", scattered); err != nil {
			return err
		}
		if g := scattered.twoLevel(); g == nil || g.contig || len(g.groups) != 4 {
			return fmt.Errorf("scattered split grouping = %+v, want 4 non-contiguous node groups", g)
		}
		contig, err := c.Split(c.Rank()/8, c.Rank())
		if err != nil {
			return err
		}
		if err := check("contiguous split", contig); err != nil {
			return err
		}
		if g := contig.twoLevel(); g == nil || !g.contig || len(g.groups) != 2 {
			return fmt.Errorf("contiguous split grouping = %+v, want 2 contiguous node groups", g)
		}
		return nil
	})
	for r, g := range worlds {
		if g == nil || g != worlds[0] {
			t.Fatalf("rank %d holds world grouping %p, rank 0 %p: want one shared value", r, g, worlds[0])
		}
	}
	if g := worlds[0]; len(g.groups) != size/nodeSize || !g.contig {
		t.Errorf("world grouping = %+v, want %d contiguous groups", g, size/nodeSize)
	}
}

// TestSplitSharedGroupingReadOnly drives typed collectives on the world
// and on Split children from every rank at once, so the race detector
// sees every reader of the shared world grouping and of each child's
// lazily built one.
func TestSplitSharedGroupingReadOnly(t *testing.T) {
	const size, nodeSize = 16, 4
	ty := contigDouble(t)
	runHier(t, size, nodeSize, func(c *Comm) error {
		b := buf.Alloc(8)
		for i := 0; i < 3; i++ {
			if err := c.BcastType(b, 1, ty, i); err != nil {
				return err
			}
		}
		sub, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		if want := sub.Size() - 1 - c.Rank()/2; sub.Rank() != want {
			return fmt.Errorf("world rank %d got sub rank %d, want %d (descending keys)", c.Rank(), sub.Rank(), want)
		}
		recv := buf.Alloc(8 * sub.Size())
		for i := 0; i < 3; i++ {
			if err := sub.BcastType(b, 1, ty, i); err != nil {
				return err
			}
			if err := sub.AllgatherType(b, 1, ty, recv, 1, ty); err != nil {
				return err
			}
		}
		return c.AllgatherType(b, 1, ty, buf.Alloc(8*size), 1, ty)
	})
}

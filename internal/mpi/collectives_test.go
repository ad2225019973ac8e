package mpi

import (
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/oracle"
)

// runN runs an n-rank job with a watchdog.
func runN(t *testing.T, n int, body func(c *Comm) error) {
	t.Helper()
	if err := Run(n, Options{WallLimit: 30 * time.Second}, body); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		// Skew the clocks deliberately.
		c.Charge(float64(c.Rank()) * 1e-3)
		c.Barrier()
		if got := c.Wtime(); got < 3e-3 {
			t.Errorf("rank %d resumed at %g, want ≥ slowest rank's 3e-3", c.Rank(), got)
		}
		return nil
	})
}

func TestBcastBinomial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		runN(t, n, func(c *Comm) error {
			b := buf.Alloc(4096)
			root := n / 2
			if c.Rank() == root {
				b.FillPattern(99)
			}
			if err := c.Bcast(b, root); err != nil {
				return err
			}
			if err := oracle.VerifyPattern(b, 99); err != nil {
				t.Errorf("size %d rank %d: %v", n, c.Rank(), err)
			}
			return nil
		})
	}
}

func TestAllgatherRing(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		runN(t, n, func(c *Comm) error {
			send := buf.Alloc(16)
			send.FillPattern(byte(c.Rank() * 3))
			recv := buf.Alloc(16 * n)
			if err := c.Allgather(send, recv); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if err := oracle.VerifyPattern(recv.Slice(r*16, 16), byte(r*3)); err != nil {
					t.Errorf("size %d rank %d slot %d: %v", n, c.Rank(), r, err)
				}
			}
			return nil
		})
	}
}

func TestSplitPairs(t *testing.T) {
	// Six ranks split into three pairs; each pair ping-pongs on its own
	// communicator — the node-scaling experiment's structure (§4.7).
	runN(t, 6, func(c *Comm) error {
		pair, err := c.Split(c.Rank()/2, c.Rank()%2)
		if err != nil {
			return err
		}
		if pair.Size() != 2 {
			t.Errorf("pair size = %d", pair.Size())
		}
		b := buf.Alloc(512)
		if pair.Rank() == 0 {
			b.FillPattern(byte(c.Rank() / 2))
			if err := pair.Send(b, 1, 0); err != nil {
				return err
			}
		} else {
			if _, err := pair.Recv(b, 0, 0); err != nil {
				return err
			}
			if err := oracle.VerifyPattern(b, byte(c.Rank()/2)); err != nil {
				t.Errorf("pair %d: %v", c.Rank()/2, err)
			}
		}
		pair.Barrier()
		return nil
	})
}

func TestSplitByKeyOrdering(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		// Same color; key reverses the ranks.
		nc, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if want := c.Size() - 1 - c.Rank(); nc.Rank() != want {
			t.Errorf("new rank = %d, want %d", nc.Rank(), want)
		}
		return nil
	})
}

func TestSplitTrafficIsolated(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		nc, err := c.Split(c.Rank()%2, 0)
		if err != nil {
			return err
		}
		// Ranks 0,2 are pair 0; ranks 1,3 are pair 1. Both pairs use
		// tag 0 concurrently; contexts must keep them apart.
		b := buf.Alloc(64)
		if nc.Rank() == 0 {
			b.FillPattern(byte(100 + c.Rank()%2))
			return nc.Send(b, 1, 0)
		}
		if _, err := nc.Recv(b, 0, 0); err != nil {
			return err
		}
		return oracle.VerifyPattern(b, byte(100+c.Rank()%2))
	})
}

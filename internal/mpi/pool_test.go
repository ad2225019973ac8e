package mpi

import (
	"testing"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/oracle"
)

// TestTransitBuffersRecycled pins the pooled-transit contract: across
// repeated eager sends and rendezvous typed receives, the transit and
// staging blocks cycle through the buf pool (hits accumulate) and the
// payloads stay byte-correct.
func TestTransitBuffersRecycled(t *testing.T) {
	before := buf.PoolStatsSnapshot()
	const reps = 20
	err := Run(2, Options{}, func(c *Comm) error {
		ty, err := datatype.Vector(512, 1, 2, datatype.Float64)
		if err != nil {
			return err
		}
		if err := ty.Commit(); err != nil {
			return err
		}
		for rep := 0; rep < reps; rep++ {
			if c.Rank() == 0 {
				// Eager contiguous (pooled transit copy).
				small := buf.Alloc(1 << 10)
				small.FillPattern(byte(rep))
				if err := c.Send(small, 1, 0); err != nil {
					return err
				}
				// Rendezvous typed (pooled staging on the receiver).
				src := buf.Alloc(int(ty.Extent()))
				src.FillPattern(byte(rep + 1))
				if err := c.SsendType(src, 1, ty, 1, 1); err != nil {
					return err
				}
			} else {
				small := buf.Alloc(1 << 10)
				if _, err := c.Recv(small, 0, 0); err != nil {
					return err
				}
				if err := oracle.VerifyPattern(small, byte(rep)); err != nil {
					return err
				}
				dst := buf.Alloc(int(ty.Extent()))
				if _, err := c.RecvType(dst, 1, ty, 0, 1); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d := buf.PoolStatsSnapshot().Sub(before)
	if d.Puts == 0 {
		t.Fatalf("no transit blocks were returned to the pool: %+v", d)
	}
	if d.Hits == 0 {
		t.Fatalf("no transit blocks were recycled across %d reps: %+v", reps, d)
	}
}

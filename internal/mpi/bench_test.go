package mpi

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
)

// benchPingPong runs b.N ping-pongs of n bytes inside one world.
func benchPingPong(b *testing.B, n int, typed bool) {
	b.Helper()
	err := Run(2, Options{WallLimit: 5 * time.Minute}, func(c *Comm) error {
		var ty *datatype.Type
		var src buf.Block
		if typed {
			var err error
			ty, err = datatype.Vector(n/8, 1, 2, datatype.Float64)
			if err != nil {
				return err
			}
			if err := ty.Commit(); err != nil {
				return err
			}
			src = buf.Alloc(int(ty.Extent()))
		} else {
			src = buf.Alloc(n)
		}
		dst := buf.Alloc(n)
		pong := buf.Alloc(0)
		c.Barrier()
		if c.Rank() == 0 {
			b.SetBytes(int64(n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if typed {
					if err := c.SendType(src, 1, ty, 1, 0); err != nil {
						return err
					}
				} else {
					if err := c.Send(src, 1, 0); err != nil {
						return err
					}
				}
				if _, err := c.Recv(pong, 1, 1); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.Recv(dst, 0, 0); err != nil {
				return err
			}
			if err := c.Send(pong, 0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPingPongEager(b *testing.B)      { benchPingPong(b, 4<<10, false) }
func BenchmarkPingPongRendezvous(b *testing.B) { benchPingPong(b, 1<<20, false) }
func BenchmarkPingPongTyped(b *testing.B)      { benchPingPong(b, 1<<20, true) }

// BenchmarkPingPongVirtual times 10⁹-byte ping-pongs of a virtual
// every-other-double vector, the large end of the paper's sweep that
// the figures run without materialising. No byte moves, so an op is
// one accounting step per drain: it fails if its plan counters differ
// from one compiled chunk per internal chunk (also one pipelined chunk
// for SendpType) or if it draws a pooled block.
func BenchmarkPingPongVirtual(b *testing.B) {
	const n = 1_000_000_000
	prof := perfmodel.Generic()
	chunks := prof.Chunks(n)
	ty, err := datatype.Vector(n/8, 1, 2, datatype.Float64)
	if err == nil {
		err = ty.Commit()
	}
	if err == nil {
		_, err = ty.CompilePlan(1) // every op then binds the plan with one cache hit
	}
	if err != nil {
		b.Fatal(err)
	}
	for _, pipelined := range []bool{false, true} {
		name, want := "SendType", datatype.PlanStats{PlanHits: 1, StrideOps: chunks, StrideBytes: n, ChunkOps: chunks, ChunkBytes: n}
		if pipelined {
			name, want.PipelinedOps, want.PipelinedBytes = "SendpType", chunks, n
		}
		b.Run(name, func(b *testing.B) {
			err := Run(2, Options{Profile: prof, WallLimit: 5 * time.Minute}, func(c *Comm) error {
				src, dst, pong := buf.Virtual(int(ty.Extent())), buf.Virtual(n), buf.Alloc(0)
				c.Barrier()
				if c.Rank() == 1 {
					for i := 0; i < b.N; i++ {
						if _, err := c.Recv(dst, 0, 0); err != nil {
							return err
						}
						if err := c.Send(pong, 0, 1); err != nil {
							return err
						}
					}
					return nil
				}
				b.SetBytes(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					planBefore, poolBefore := datatype.PlanStatsSnapshot(), buf.PoolStatsSnapshot()
					send := c.SendType
					if pipelined {
						send = c.SendpType
					}
					if err := send(src, 1, ty, 1, 0); err != nil {
						return err
					}
					if _, err := c.Recv(pong, 1, 1); err != nil {
						return err
					}
					if got := datatype.PlanStatsSnapshot().Sub(planBefore); got != want {
						return fmt.Errorf("op %d: plan counters %v, want %v", i, got, want)
					}
					if gets := buf.PoolStatsSnapshot().Sub(poolBefore).Gets; gets != 0 {
						return fmt.Errorf("op %d drew %d pooled blocks", i, gets)
					}
				}
				b.StopTimer()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkBarrier8(b *testing.B) {
	err := Run(8, Options{WallLimit: 5 * time.Minute}, func(c *Comm) error {
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllreduce8(b *testing.B) {
	err := Run(8, Options{WallLimit: 5 * time.Minute}, func(c *Comm) error {
		send := buf.Alloc(8 * 128)
		recv := buf.Alloc(8 * 128)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := c.Allreduce(send, recv, 128, OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOneSidedPutFence(b *testing.B) {
	err := Run(2, Options{WallLimit: 5 * time.Minute}, func(c *Comm) error {
		const n = 64 << 10
		ty, err := datatype.Vector(n/8, 1, 2, datatype.Float64)
		if err != nil {
			return err
		}
		if err := ty.Commit(); err != nil {
			return err
		}
		src := buf.Alloc(int(ty.Extent()))
		w, err := c.WinCreate(buf.Alloc(n))
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.SetBytes(n)
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if err := w.Fence(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				if err := w.Put(src, 1, ty, 1, 0); err != nil {
					return err
				}
			}
			if err := w.Fence(); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			b.StopTimer()
		}
		return w.Free()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTypedFaulty is the op of cmd/bench's typed_faulty workload
// as an inner loop for -cpuprofile: 4 MiB of every-other-double sent
// into blocks of four doubles at stride eight on skx-impi under 2 %
// uniform faults with the default retry policy, answered by a
// zero-byte reply — one sub-benchmark per engine.
func BenchmarkTypedFaulty(b *testing.B) {
	const n = 4 << 20
	prof, err := perfmodel.ByName("skx-impi")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range []struct {
		name string
		send func(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error
	}{
		{"serial", (*Comm).SendType},
		{"pipelined", (*Comm).SendpType},
		{"fused", (*Comm).SendvType},
	} {
		b.Run(e.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(n)
			err := Run(2, Options{Profile: prof, Faults: simnet.UniformFaults(11, 0.02), WallLimit: 5 * time.Minute}, func(c *Comm) error {
				count, block, stride := n/8, 1, 2
				if c.Rank() == 1 {
					count, block, stride = n/32, 4, 8
				}
				ty, err := datatype.Vector(count, block, stride, datatype.Float64)
				if err == nil {
					err = ty.Commit()
				}
				if err != nil {
					return err
				}
				user, pong := buf.AllocAligned(2*n), buf.Alloc(0)
				user.FillPattern(11)
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						err = e.send(c, user, 1, ty, 1, 0)
						if err == nil {
							_, err = c.Recv(pong, 1, 1)
						}
					} else if _, err = c.RecvType(user, 1, ty, 0, 0); err == nil {
						err = c.Send(pong, 0, 1)
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

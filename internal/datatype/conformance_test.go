package datatype

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buf"
)

// TestNmadDatatypeConformance ports the sends of the nmad MPI
// library's datatype example (examples/mpi/datatype.c) to the datatype
// layer: a contiguous-of-contiguous type sent as 4×int, 2×inner and
// 1×outer, a vector, an hvector of floats and an indexed type, each
// over a source holding i at index i. Every case is packed and
// unpacked whole, through every packed range, checksummed over every
// range and fused with every other case of its packed size, all
// against the interpreting cursor; the packed stream is what the
// example's receiver prints.
func TestNmadDatatypeConformance(t *testing.T) {
	inner := mustType(Contiguous(2, Int32))
	seq := func(lo, n int) (out []int) {
		for i := 0; i < n; i++ {
			out = append(out, lo+i)
		}
		return out
	}
	var vector, hvector []int
	for i := 0; i < 10; i++ {
		vector = append(vector, 10*i, 10*i+1)
	}
	for i := 0; i < 8; i++ {
		hvector = append(hvector, seq(8*i, 3)...)
	}
	cases := []struct {
		name   string
		ty     *Type
		count  int
		float  bool
		kernel PlanKernel
		want   []int
	}{
		{"contig/4xint", Int32, 4, false, KernelContig, seq(0, 4)},
		{"contig/2xinner", inner, 2, false, KernelContig, seq(0, 4)},
		{"contig/1xouter", mustType(Contiguous(2, inner)), 1, false, KernelContig, seq(0, 4)},
		{"vector", mustType(Vector(10, 2, 10, Int32)), 1, false, KernelStride, vector},
		{"hvector", mustType(Hvector(8, 3, 32, Float32)), 1, true, KernelStride, hvector},
		{"indexed", mustType(Indexed([]int{1, 3, 2}, []int{0, 2, 6}, Int32)), 1, false, KernelGather, []int{0, 2, 3, 4, 6, 7}},
	}
	// source returns the case's user buffer, element i holding i.
	source := func(ty *Type, count int, float bool) buf.Block {
		b := buf.Alloc(userBufLen(ty, count))
		for i := 0; i+4 <= b.Len(); i += 4 {
			v := uint32(i / 4)
			if float {
				v = math.Float32bits(float32(i / 4))
			}
			binary.LittleEndian.PutUint32(b.Bytes()[i:], v)
		}
		return b
	}
	rng := rand.New(rand.NewSource(0x2AD))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := source(c.ty, c.count, c.float)
			want := cursorPack(t, c.ty, src, c.count, rng)
			var got []int
			for i := 0; i < len(want); i += 4 {
				v := binary.LittleEndian.Uint32(want[i:])
				if c.float {
					v = uint32(math.Float32frombits(v))
				}
				got = append(got, int(v))
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("received %v, want %v", got, c.want)
			}

			packed := buf.Alloc(len(want))
			if _, err := c.ty.Pack(src, c.count, packed); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(packed.Bytes(), want) {
				t.Fatal("Pack differs from the cursor")
			}
			unpacked, exp := buf.Alloc(src.Len()), buf.Alloc(src.Len())
			if _, err := c.ty.Unpack(packed, c.count, unpacked); err != nil {
				t.Fatal(err)
			}
			cursorUnpack(t, c.ty, exp, c.count, want, rng)
			if !buf.Equal(unpacked, exp) {
				t.Fatal("Unpack differs from the cursor")
			}

			checkEveryRange(t, c.ty, c.count, c.kernel, 4, rng)
			plan, err := c.ty.CompilePlan(c.count)
			if err != nil {
				t.Fatal(err)
			}
			for lo := int64(0); lo <= plan.Bytes(); lo++ {
				for hi := lo; hi <= plan.Bytes(); hi++ {
					var sum, ref buf.Checksum
					plan.ChecksumRange(src, lo, hi, &sum)
					ref.Write(want[lo:hi])
					if sum.Sum64() != ref.Sum64() {
						t.Fatalf("ChecksumRange [%d,%d) differs from the cursor's bytes", lo, hi)
					}
				}
			}

			for _, d := range cases {
				if d.name == c.name || d.ty.PackSize(d.count) != int64(len(want)) {
					continue
				}
				dstPlan, err := d.ty.CompilePlan(d.count)
				if err != nil {
					t.Fatal(err)
				}
				dst, exp := buf.Alloc(userBufLen(d.ty, d.count)), buf.Alloc(userBufLen(d.ty, d.count))
				if _, err := FusedCopy(plan, dstPlan, src, dst); err != nil {
					t.Fatal(err)
				}
				cursorUnpack(t, d.ty, exp, d.count, want, rng)
				if !buf.Equal(dst, exp) {
					t.Fatalf("FusedCopy into %s differs from the cursor", d.name)
				}
			}
		})
	}
}

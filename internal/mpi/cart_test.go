package mpi

import (
	"testing"
	"testing/quick"

	"repro/internal/buf"
	"repro/internal/oracle"
)

func TestCartCreateValidation(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		if _, err := c.CartCreate([]int{3}, []bool{false}); err == nil {
			t.Error("size mismatch accepted")
		}
		if _, err := c.CartCreate([]int{2, 2}, []bool{false}); err == nil {
			t.Error("dims/periods mismatch accepted")
		}
		if _, err := c.CartCreate([]int{0, 4}, []bool{false, false}); err == nil {
			t.Error("zero dim accepted")
		}
		return nil
	})
}

func TestCartCoordsRoundTrip(t *testing.T) {
	runN(t, 6, func(c *Comm) error {
		ct, err := c.CartCreate([]int{2, 3}, []bool{false, false})
		if err != nil {
			return err
		}
		coords := ct.coords
		want := []int{c.Rank() / 3, c.Rank() % 3}
		if coords[0] != want[0] || coords[1] != want[1] {
			t.Errorf("rank %d coords = %v, want %v", c.Rank(), coords, want)
		}
		back, err := ct.Rank(coords)
		if err != nil {
			return err
		}
		if back != c.Rank() {
			t.Errorf("coords %v -> rank %d, want %d", coords, back, c.Rank())
		}
		return nil
	})
}

func TestCartShiftNonPeriodicEdges(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		ct, err := c.CartCreate([]int{4}, []bool{false})
		if err != nil {
			return err
		}
		src, dst, err := ct.Shift(0, 1)
		if err != nil {
			return err
		}
		switch c.Rank() {
		case 0:
			if src != ProcNull || dst != 1 {
				t.Errorf("rank 0 shift = (%d,%d)", src, dst)
			}
		case 3:
			if src != 2 || dst != ProcNull {
				t.Errorf("rank 3 shift = (%d,%d)", src, dst)
			}
		default:
			if src != c.Rank()-1 || dst != c.Rank()+1 {
				t.Errorf("rank %d shift = (%d,%d)", c.Rank(), src, dst)
			}
		}
		return nil
	})
}

func TestCartShiftPeriodicWraps(t *testing.T) {
	runN(t, 4, func(c *Comm) error {
		ct, err := c.CartCreate([]int{4}, []bool{true})
		if err != nil {
			return err
		}
		src, dst, err := ct.Shift(0, 1)
		if err != nil {
			return err
		}
		if dst != (c.Rank()+1)%4 || src != (c.Rank()+3)%4 {
			t.Errorf("rank %d periodic shift = (%d,%d)", c.Rank(), src, dst)
		}
		return nil
	})
}

func TestCartRingExchange(t *testing.T) {
	// A periodic ring using Shift neighbours and a non-blocking send:
	// every rank receives its left neighbour's payload.
	runN(t, 5, func(c *Comm) error {
		ct, err := c.CartCreate([]int{5}, []bool{true})
		if err != nil {
			return err
		}
		src, dst, err := ct.Shift(0, 1)
		if err != nil {
			return err
		}
		out := buf.Alloc(64)
		out.FillPattern(byte(c.Rank()))
		in := buf.Alloc(64)
		req := c.cisend(out, dst, 0)
		if _, err := c.Recv(in, src, 0); err != nil {
			return err
		}
		if _, err := req.Wait(); err != nil {
			return err
		}
		return oracle.VerifyPattern(in, byte(src))
	})
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		size, ndims int
		want        []int
	}{
		{4, 2, []int{2, 2}},
		{6, 2, []int{3, 2}},
		{8, 3, []int{2, 2, 2}},
		{12, 2, []int{4, 3}},
		{7, 2, []int{7, 1}},
		{1, 1, []int{1}},
	}
	for _, tc := range cases {
		got, err := DimsCreate(tc.size, tc.ndims)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d): %v", tc.size, tc.ndims, err)
		}
		prod := 1
		for _, d := range got {
			prod *= d
		}
		if prod != tc.size {
			t.Errorf("DimsCreate(%d,%d) = %v: wrong product", tc.size, tc.ndims, got)
		}
		for i, w := range tc.want {
			if got[i] != w {
				t.Errorf("DimsCreate(%d,%d) = %v, want %v", tc.size, tc.ndims, got, tc.want)
				break
			}
		}
	}
	if _, err := DimsCreate(0, 1); err == nil {
		t.Error("DimsCreate(0,1) accepted")
	}
}

// Property: DimsCreate always multiplies back to size, sorted
// descending, and reasonably balanced for powers of two.
func TestQuickDimsCreate(t *testing.T) {
	f := func(sz, nd uint8) bool {
		size := int(sz)%255 + 1
		ndims := int(nd)%4 + 1
		dims, err := DimsCreate(size, ndims)
		if err != nil {
			return false
		}
		prod := 1
		prev := 1 << 30
		for _, d := range dims {
			if d <= 0 || d > prev {
				return false
			}
			prev = d
			prod *= d
		}
		return prod == size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package mpi

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/perfmodel"
)

// virtualDrainRow is what one typed rendezvous leaves behind: the
// plan-engine counter delta, both ranks' virtual clocks at the end and
// the pooled blocks the transfer drew.
type virtualDrainRow struct {
	plan   string
	w0, w1 float64
	gets   int64
}

// runVirtualDrain sends an every-other-double vector of n bytes from
// rank 0 to a typed receive on rank 1 whose type is one element longer
// than the message, so a sendv transfer takes the staged scatter.
// virt names the side(s) whose buffer is virtual.
func runVirtualDrain(t *testing.T, prof *perfmodel.Profile, send, virt string, n int64) virtualDrainRow {
	t.Helper()
	vec := func(elems int64) *datatype.Type {
		ty, err := datatype.Vector(int(elems), 1, 2, datatype.Float64)
		if err == nil {
			err = ty.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		return ty
	}
	sty, rty := vec(n/8), vec(n/8+1)
	block := func(ty *datatype.Type, virtual bool) buf.Block {
		if virtual {
			return buf.Virtual(int(ty.Extent()))
		}
		return buf.Alloc(int(ty.Extent()))
	}
	src := block(sty, virt != "receiver")
	dst := block(rty, virt != "sender")
	var row virtualDrainRow
	planBefore, poolBefore := datatype.PlanStatsSnapshot(), buf.PoolStatsSnapshot()
	err := Run(2, Options{Profile: prof, WallLimit: 2 * time.Minute}, func(c *Comm) error {
		if c.Rank() == 0 {
			var err error
			switch send {
			case "SendType":
				err = c.SendType(src, 1, sty, 1, 0)
			case "SendpType":
				err = c.SendpType(src, 1, sty, 1, 0)
			case "SendvType":
				err = c.SendvType(src, 1, sty, 1, 0)
			}
			row.w0 = c.Wtime()
			return err
		}
		_, err := c.RecvType(dst, 1, rty, 0, 0)
		row.w1 = c.Wtime()
		return err
	})
	if err != nil {
		t.Fatalf("%s %s-virtual %d bytes: %v", send, virt, n, err)
	}
	row.plan = datatype.PlanStatsSnapshot().Sub(planBefore).String()
	row.gets = buf.PoolStatsSnapshot().Sub(poolBefore).Gets
	return row
}

// TestVirtualDrainAttribution pins, as literals recorded while every
// virtual rendezvous still walked its chunk loop, what the staged,
// pipelined and staged-scatter drains attribute when the sender's or
// the receiver's buffer (or both) is virtual: plan counters chunk for
// chunk, both virtual clocks, and the pooled blocks drawn — which may
// only fall, since a drain that moves no bytes needs no slot ring.
// Sizes straddle one internal chunk, span several and reach 10⁹ bytes
// (with both sides virtual only: a real side would need a gigabyte).
func TestVirtualDrainAttribution(t *testing.T) {
	prof := perfmodel.Generic()
	chunk := prof.InternalChunk()
	var dump strings.Builder
	for _, send := range []string{"SendType", "SendpType", "SendvType"} {
		for _, virt := range []string{"sender", "receiver", "both"} {
			for _, n := range []int64{chunk - 8, chunk, 3*chunk + 8, 1e9} {
				if n == 1e9 && virt != "both" {
					continue
				}
				key := fmt.Sprintf("%s/%s/%d", send, virt, n)
				got := runVirtualDrain(t, prof, send, virt, n)
				fmt.Fprintf(&dump, "\t%q: {%q, %s, %s, %d},\n", key, got.plan,
					strconv.FormatFloat(got.w0, 'g', -1, 64), strconv.FormatFloat(got.w1, 'g', -1, 64), got.gets)
				want, ok := virtualDrainWant[key]
				switch {
				case !ok:
					t.Errorf("%s: no recorded row", key)
				case got.plan != want.plan || got.w0 != want.w0 || got.w1 != want.w1 || got.gets > want.gets:
					t.Errorf("%s:\n got %v\nwant %v", key, got, want)
				}
			}
		}
	}
	if t.Failed() {
		t.Logf("rows of this tree:\n%s", dump.String())
	}
}

var virtualDrainWant = map[string]virtualDrainRow{
	"SendType/sender/524280":     {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 1},
	"SendType/sender/524288":     {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 1},
	"SendType/sender/1572872":    {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000430494, 0.000720337, 1},
	"SendType/receiver/524280":   {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 0},
	"SendType/receiver/524288":   {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 0},
	"SendType/receiver/1572872":  {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000430494, 0.000720337, 0},
	"SendType/both/524280":       {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 0},
	"SendType/both/524288":       {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 0},
	"SendType/both/1572872":      {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000430494, 0.000720337, 0},
	"SendType/both/1000000000":   {"plan{compiled=0 cache=1/2 contig=0/0B stride=1909/2000000000B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1909/2000000000B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/1000000000B}", 0.486139394, 0.668826326, 0},
	"SendpType/sender/524280":    {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 1},
	"SendpType/sender/524288":    {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 1},
	"SendpType/sender/1572872":   {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000308782, 0.000598625, 1},
	"SendpType/receiver/524280":  {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 0},
	"SendpType/receiver/524288":  {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 0},
	"SendpType/receiver/1572872": {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000308782, 0.000598625, 3},
	"SendpType/both/524280":      {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524280B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000146262, 0.000244541, 0},
	"SendpType/both/524288":      {"plan{compiled=0 cache=1/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1/524288B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000146263, 0.000244548, 0},
	"SendpType/both/1572872":     {"plan{compiled=0 cache=1/2 contig=0/0B stride=5/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=5/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000308782, 0.000598625, 0},
	"SendpType/both/1000000000":  {"plan{compiled=0 cache=1/2 contig=0/0B stride=1909/2000000000B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=1909/2000000000B pipelined=1908/1000000000B cursor=0/0B fused=0/0B staged=1/1000000000B}", 0.297139737, 0.479826669, 0},
	"SendvType/sender/524280":    {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048560B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000152336, 0.000154836, 0},
	"SendvType/sender/524288":    {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048576B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000152339, 0.000154839, 0},
	"SendvType/sender/1572872":   {"plan{compiled=0 cache=0/2 contig=0/0B stride=8/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=8/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000317514, 0.000320014, 0},
	"SendvType/receiver/524280":  {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048560B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000152336, 0.000154836, 1},
	"SendvType/receiver/524288":  {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048576B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000152339, 0.000154839, 1},
	"SendvType/receiver/1572872": {"plan{compiled=0 cache=0/2 contig=0/0B stride=8/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=8/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000317514, 0.000320014, 3},
	"SendvType/both/524280":      {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048560B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048560B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524280B}", 0.000152336, 0.000154836, 0},
	"SendvType/both/524288":      {"plan{compiled=0 cache=0/2 contig=0/0B stride=2/1048576B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=2/1048576B pipelined=0/0B cursor=0/0B fused=0/0B staged=1/524288B}", 0.000152339, 0.000154839, 0},
	"SendvType/both/1572872":     {"plan{compiled=0 cache=0/2 contig=0/0B stride=8/3145744B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=8/3145744B pipelined=4/1572872B cursor=0/0B fused=0/0B staged=1/1572872B}", 0.000317514, 0.000320014, 0},
	"SendvType/both/1000000000":  {"plan{compiled=0 cache=0/2 contig=0/0B stride=3816/2000000000B gather=0/0B block=0/0B canon=0/0 merged=0 parallel=0/0B chunk=3816/2000000000B pipelined=1908/1000000000B cursor=0/0B fused=0/0B staged=1/1000000000B}", 0.171437032, 0.171439532, 0},
}

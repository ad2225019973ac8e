package mpi

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
	"repro/internal/simnet"
)

// The golden table of typed rendezvous under faults. Every simulated
// quantity of a faulted typed send — both ranks' virtual time, both
// ranks' fabric counters, the plan-engine attribution, the error each
// rank returns — is a function of the fault plan alone, never of how
// the engine came by a checksum. testdata/faulty_golden.txt records a
// digest of those quantities per (send form × receiver × fault plan),
// written from the tree that still summed the source in a second
// strided pass (commit f6b1cfa); the contiguous and eager SendType rows
// were recorded later, from the tree whose send engines still ran their
// own attempt loops (commit d51fc9d). TestFaultyGolden asserts this
// tree reproduces every row and that the received bytes equal the
// Type.Pack/Type.Unpack oracle.
//
// To compare two trees row by row instead of by digest, run both with
// -faulty-golden-dump=<file> and diff the files.
var (
	goldenUpdate = flag.Bool("faulty-golden-update", false, "rewrite testdata/faulty_golden.txt from this tree")
	goldenDump   = flag.String("faulty-golden-dump", "", "also write the undigested golden rows to this file")
)

const goldenFile = "testdata/faulty_golden.txt"

type goldenSend struct {
	name  string
	elems int // doubles packed per transfer
	whole bool
	// contig sends the packed stream as one contiguous block (b is then
	// that block; count and ty are ignored).
	contig bool
	// eager forms carry the payload in the envelope, so the scripted
	// faults hit the envelope leg instead of the rendezvous payload leg.
	eager bool
	send  func(c *Comm, b buf.Block, count int, ty *datatype.Type) error
}

// goldenSends: the three engines at a rendezvous size (32 internal
// chunks of the selective profile), their forced-rendezvous forms at
// an eager size (6 chunks), and the engines again under whole-transfer
// replay; then the contiguous send in the same three forms, and
// SendType at the eager size (the faulted eager retry loop).
func goldenSends() []goldenSend {
	const large, small = 16384, 3072
	engines := []struct {
		name        string
		send, ssend func(c *Comm, b buf.Block, count int, ty *datatype.Type, dest, tag int) error
	}{
		{"SendType", (*Comm).SendType, (*Comm).SsendType},
		{"SendpType", (*Comm).SendpType, ssendp},
		{"SendvType", (*Comm).SendvType, ssendv},
	}
	var out []goldenSend
	for _, e := range engines {
		send, ssend := e.send, e.ssend
		plain := func(c *Comm, b buf.Block, count int, ty *datatype.Type) error { return send(c, b, count, ty, 1, 7) }
		forced := func(c *Comm, b buf.Block, count int, ty *datatype.Type) error { return ssend(c, b, count, ty, 1, 7) }
		out = append(out,
			goldenSend{e.name, large, false, false, false, plain},
			goldenSend{"S" + strings.ToLower(e.name[:1]) + e.name[1:], small, false, false, false, forced},
			goldenSend{e.name + "+WholeReplay", large, true, false, false, plain})
	}
	send := func(c *Comm, b buf.Block, _ int, _ *datatype.Type) error { return c.Send(b, 1, 7) }
	forced := func(c *Comm, b buf.Block, _ int, _ *datatype.Type) error { return ssend(c, b, 1, 7) }
	eager := func(c *Comm, b buf.Block, count int, ty *datatype.Type) error { return c.SendType(b, count, ty, 1, 7) }
	return append(out,
		goldenSend{"Send", large, false, true, false, send},
		goldenSend{"Ssend", small, false, true, false, forced},
		goldenSend{"Send+WholeReplay", large, true, true, false, send},
		goldenSend{"SendType.eager", small, false, false, true, eager})
}

var goldenRecvs = []string{"typed", "contig", "short", "overlap", "virtual"}

type goldenPlan struct {
	name string
	plan func() *simnet.FaultPlan
}

// goldenPlans: uniform 2 % faults for seeds 1…32, a 25 % storm for
// seeds 1…8, and every payload fault kind scripted onto the first, a
// middle and the last chunk of the first attempt — or, for an eager
// form (payload false), onto the envelope leg's first, middle and last
// sequence number, where the first hits the first attempt.
func goldenPlans(chunks int, payload bool) []goldenPlan {
	var out []goldenPlan
	for s := uint64(1); s <= 32; s++ {
		s := s
		out = append(out, goldenPlan{fmt.Sprintf("u02.%d", s), func() *simnet.FaultPlan { return simnet.UniformFaults(s, 0.02) }})
	}
	for s := uint64(1); s <= 8; s++ {
		s := s
		out = append(out, goldenPlan{fmt.Sprintf("u25.%d", s), func() *simnet.FaultPlan { return simnet.UniformFaults(s, 0.25) }})
	}
	kinds := []simnet.FaultKind{simnet.FaultDrop, simnet.FaultCorrupt, simnet.FaultTruncate,
		simnet.FaultDuplicate, simnet.FaultReorder, simnet.FaultDelay}
	for _, k := range kinds {
		for _, at := range []struct {
			name string
			seq  int64
		}{{"first", 0}, {"mid", int64(chunks / 2)}, {"last", int64(chunks - 1)}} {
			k, seq := k, at.seq
			out = append(out, goldenPlan{fmt.Sprintf("%v.%s", k, at.name), func() *simnet.FaultPlan {
				return &simnet.FaultPlan{Seed: 5, Scripted: []simnet.ScriptedFault{{Src: 0, Dst: 1, Seq: seq, Payload: payload, Kind: k}}}
			}})
		}
	}
	return out
}

// nonZero renders a struct's non-zero fields, so a counter added later
// (and left at zero) does not change a recorded row.
func nonZero(v any) string {
	rv := reflect.ValueOf(v)
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); !f.IsZero() {
			fmt.Fprintf(&sb, " %s:%v", rv.Type().Field(i).Name, f.Interface())
		}
	}
	sb.WriteString(" }")
	return sb.String()
}

func goldenErr(err error) string {
	if err == nil {
		return "nil"
	}
	return fmt.Sprintf("%T(%v)", err, err)
}

// goldenVector commits a fresh vector of doubles.
func goldenVector(t testing.TB, count, block, stride int) *datatype.Type {
	t.Helper()
	ty, err := datatype.Vector(count, block, stride, datatype.Float64)
	if err == nil {
		err = ty.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
	return ty
}

// goldenRow runs one faulted transfer and returns its simulated
// quantities as one line; the received bytes are checked against the
// oracle on the way.
func goldenRow(t *testing.T, s goldenSend, recv string, faults *simnet.FaultPlan) string {
	t.Helper()
	// Two instances of an every-other-double vector: the packed stream
	// crosses an instance rollover. Fresh types per row, one per rank,
	// so the plan-cache counters do not depend on which rows ran before.
	const count = 2
	sendTy := goldenVector(t, s.elems/count, 1, 2)
	n := sendTy.PackSize(count)
	src := buf.Alloc(int(typedSpan(sendTy, count)))
	fillPat(src, 0, 1)
	packed := buf.Alloc(int(n))
	if _, err := sendTy.Pack(src, count, packed); err != nil {
		t.Fatal(err)
	}

	var recvTy *datatype.Type
	recvCount := 1
	switch recv {
	case "typed", "virtual":
		recvTy = goldenVector(t, s.elems/4, 4, 8)
	case "overlap":
		recvTy, recvCount = interleavedResized(t), int(n/8)
	}
	var dst, want buf.Block
	switch recv {
	case "contig":
		dst, want = buf.Alloc(int(n)), packed
	case "short":
		// Not a multiple of the chunk, nor of a word: the last covered
		// chunk ends inside a run.
		dst = buf.Alloc(int(n)*3/4 - 3)
		want = packed.Slice(0, dst.Len())
	default:
		span := int(typedSpan(recvTy, recvCount))
		dst, want = buf.Alloc(span), buf.Alloc(span)
		if _, err := recvTy.Unpack(packed, recvCount, want); err != nil {
			t.Fatal(err)
		}
	}
	if s.contig {
		src = packed
	}
	if recv == "virtual" {
		src, dst = buf.Virtual(src.Len()), buf.Virtual(dst.Len())
	}

	var wt [2]float64
	var ctr [2]simnet.Counters
	var errs [2]error
	before := datatype.PlanStatsSnapshot()
	runErr := Run(2, Options{
		Profile: selectiveProfile(), Faults: faults, WallLimit: 30 * time.Second,
		Retry: RetryPolicy{WholeReplay: s.whole},
	}, func(c *Comm) error {
		r := c.Rank()
		if r == 0 {
			errs[0] = s.send(c, src, count, sendTy)
		} else if recvTy != nil {
			_, errs[1] = c.RecvType(dst, recvCount, recvTy, 0, 7)
		} else {
			_, errs[1] = c.Recv(dst, 0, 7)
		}
		wt[r], ctr[r] = c.Wtime(), c.Counters()
		return nil
	})
	plan := datatype.PlanStatsSnapshot().Sub(before)
	if runErr != nil {
		t.Fatalf("world: %v", runErr)
	}
	delivered := errs[1] == nil || (recv == "short" && strings.Contains(errs[1].Error(), ErrTruncate.Error()))
	if recv != "virtual" && errs[0] == nil && delivered && !bytes.Equal(dst.Bytes(), want.Bytes()) {
		t.Errorf("received bytes differ from the Type.Pack/Type.Unpack oracle")
	}
	plan.ChecksumBytes = 0 // not a quantity of the recorded tree
	return fmt.Sprintf("t0=%v t1=%v c0=%s c1=%s plan=%s e0=%s e1=%s",
		wt[0], wt[1], nonZero(ctr[0]), nonZero(ctr[1]), nonZero(plan), goldenErr(errs[0]), goldenErr(errs[1]))
}

func TestFaultyGolden(t *testing.T) {
	// One line per send form and receiver: its name, then plan=digest
	// for every fault plan.
	golden := map[string]string{}
	if !*goldenUpdate {
		data, err := os.ReadFile(goldenFile)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			for _, kv := range f[min(1, len(f)):] {
				k, v, _ := strings.Cut(kv, "=")
				golden[f[0]+"/"+k] = v
			}
		}
	}
	var out, dump bytes.Buffer
	rows, bad := 0, 0
	for _, s := range goldenSends() {
		for _, recv := range goldenRecvs {
			fmt.Fprintf(&out, "%s/%s", s.name, recv)
			for _, p := range goldenPlans(s.elems*8/4096, !s.eager) {
				key := s.name + "/" + recv + "/" + p.name
				row := goldenRow(t, s, recv, p.plan())
				h := fnv.New32a()
				h.Write([]byte(row))
				digest := fmt.Sprintf("%08x", h.Sum32())
				fmt.Fprintf(&dump, "%s %s\n", key, row)
				fmt.Fprintf(&out, " %s=%s", p.name, digest)
				rows++
				if !*goldenUpdate && golden[key] != digest {
					if bad++; bad <= 5 {
						t.Errorf("%s: digest %s, recorded %q\n  now: %s", key, digest, golden[key], row)
					}
				}
			}
			out.WriteByte('\n')
		}
	}
	if bad > 5 {
		t.Errorf("… and %d more rows", bad-5)
	}
	if !*goldenUpdate && rows != len(golden) {
		t.Errorf("ran %d rows, %s records %d", rows, goldenFile, len(golden))
	}
	if *goldenDump != "" {
		if err := os.WriteFile(*goldenDump, dump.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if *goldenUpdate {
		if err := os.WriteFile(goldenFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

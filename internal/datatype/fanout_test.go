package datatype_test

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/buf"
	"repro/internal/datatype"
)

// fanWorkers are the fan-outs every parallel entry is checked at: the
// serial reference, an even split, one that leaves a remainder, and
// more workers than some ranges have pieces.
var fanWorkers = []int{1, 2, 3, 8}

// fanChunk is the chunk and piece length of the equivalence tests: the
// layouts below pack ten whole chunks and a short tail.
const fanChunk = 4096

type fanCase struct {
	name string
	plan *datatype.Plan
	src  buf.Block
}

// fanCases are a strided form (every other double) and a segment
// table (an irregular indexed instance), each over a patterned source.
func fanCases(t *testing.T) []fanCase {
	t.Helper()
	vec, err := datatype.Vector(5248, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := datatype.Indexed([]int{3, 1, 5, 2}, []int{0, 5, 9, 20}, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	var cases []fanCase
	for _, c := range []struct {
		name  string
		ty    *datatype.Type
		count int
	}{{"vector", vec, 1}, {"indexed", idx, 477}} {
		if err := c.ty.Commit(); err != nil {
			t.Fatal(err)
		}
		plan, err := c.ty.CompilePlan(c.count)
		if err != nil {
			t.Fatal(err)
		}
		src := buf.Alloc(int(c.ty.Extent()) * c.count)
		for i, b := 0, src.Bytes(); i < len(b); i++ {
			b[i] = byte(i*131 + 7)
		}
		cases = append(cases, fanCase{c.name, plan, src})
	}
	return cases
}

// packed is the plan's whole packed stream, the oracle of every test.
func packed(t *testing.T, c fanCase) []byte {
	t.Helper()
	out := buf.Alloc(int(c.plan.Bytes()))
	if _, err := c.plan.Pack(c.src, out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func sumOf(b []byte) uint64 {
	var cs buf.Checksum
	cs.Write(b)
	return cs.Sum64()
}

// pieceSums are the checksums of stream cut every span bytes.
func pieceSums(stream []byte, span int64) []uint64 {
	var sums []uint64
	for a := int64(0); a < int64(len(stream)); a += span {
		sums = append(sums, sumOf(stream[a:min(a+span, int64(len(stream)))]))
	}
	return sums
}

// TestFanOutPackMatchesSerial: PackChunks and PackRangeSum give the
// bytes and sums of the serial run at every fan-out — eleven pieces
// (a short tail) that no worker count above one divides, whole ranges
// and ranges that start mid-stream at a lo that is no multiple of the
// piece length.
func TestFanOutPackMatchesSerial(t *testing.T) {
	for _, c := range fanCases(t) {
		stream := packed(t, c)
		n := c.plan.Bytes()
		for _, lo := range []int64{0, 1000} {
			want := stream[lo:]
			wantSums := pieceSums(want, fanChunk)
			entries := []struct {
				name string
				run  func(dst buf.Block, sums []uint64, w int) error
			}{
				{"PackChunks", func(dst buf.Block, sums []uint64, w int) error {
					span := int64(fanChunk)
					if sums == nil {
						span = 0
					}
					return datatype.PackChunksW(c.plan, c.src, dst, lo, n, fanChunk, span, sums, w)
				}},
				{"PackRangeSum", func(dst buf.Block, sums []uint64, w int) error {
					return datatype.PackRangeSumW(c.plan, c.src, dst, lo, n, fanChunk, sums, w)
				}},
			}
			for _, e := range entries {
				for _, summed := range []bool{false, true} {
					for _, w := range fanWorkers {
						dst := buf.Alloc(len(want))
						var sums []uint64
						if summed {
							sums = make([]uint64, len(wantSums))
						}
						if err := e.run(dst, sums, w); err != nil {
							t.Fatalf("%s %s lo=%d w=%d: %v", c.name, e.name, lo, w, err)
						}
						if !bytes.Equal(dst.Bytes(), want) {
							t.Errorf("%s %s lo=%d summed=%v w=%d: packed bytes differ from the serial stream", c.name, e.name, lo, summed, w)
						}
						for i := range sums {
							if sums[i] != wantSums[i] {
								t.Errorf("%s %s lo=%d w=%d: sums[%d] = %#x, want %#x", c.name, e.name, lo, w, i, sums[i], wantSums[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFanOutVerifyMatchesSerial: ChecksumChunks sums exactly the named
// chunks, each as the serial verify would, at every fan-out — for a
// fused receiver (the stream as it lies in the plan's layout) and a
// staged one (the stream itself), over every chunk, over a sparse set
// that no worker count above one divides, and over a landing shorter
// than the stream, whose chunks at or past its end are skipped.
func TestFanOutVerifyMatchesSerial(t *testing.T) {
	const untouched = 0xdead
	for _, c := range fanCases(t) {
		stream := packed(t, c)
		total := int64(len(stream))
		chunks := (total + fanChunk - 1) / fanChunk
		receivers := []struct {
			name string
			plan *datatype.Plan
			user buf.Block
		}{{"fused", c.plan, c.src}, {"staged", nil, buf.FromBytes(stream)}}
		sets := []struct {
			name string
			set  []uint64
		}{{"all", []uint64{1<<chunks - 1}}, {"sparse", []uint64{1<<1 | 1<<7 | 1<<10}}}
		for _, r := range receivers {
			for _, s := range sets {
				for _, n := range []int64{total, total - 3000} {
					for _, w := range fanWorkers {
						sums := make([]uint64, chunks)
						for i := range sums {
							sums[i] = untouched
						}
						datatype.ChecksumChunksW(r.plan, r.user, n, fanChunk, s.set, sums, w)
						for i := int64(0); i < chunks; i++ {
							want := uint64(untouched)
							if lo := i * fanChunk; s.set[0]&(1<<i) != 0 && lo < n {
								want = sumOf(stream[lo:min(lo+fanChunk, n)])
							}
							if sums[i] != want {
								t.Errorf("%s %s receiver, %s set, n=%d, w=%d: sums[%d] = %#x, want %#x",
									c.name, r.name, s.name, n, w, i, sums[i], want)
							}
						}
					}
				}
			}
		}
	}
}

// TestFanOutConcurrentCalls: fan-outs running at once share the task
// channel, so a goroutine one of them started may run another's share;
// every call still gets its own bytes and sums.
func TestFanOutConcurrentCalls(t *testing.T) {
	cases := fanCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		c := cases[g%len(cases)]
		stream := packed(t, c)
		wantSums := pieceSums(stream, fanChunk)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dst := buf.Alloc(len(stream))
				sums := make([]uint64, len(wantSums))
				if err := datatype.PackChunksW(c.plan, c.src, dst, 0, int64(len(stream)), fanChunk, fanChunk, sums, 3); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(dst.Bytes(), stream) || !slices.Equal(sums, wantSums) {
					t.Errorf("%s: concurrent PackChunks differs from the serial stream", c.name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanOutStageMatchesSerial: StageChunks lands in the receiver's
// layout what PackRange then UnpackRange land, and folds the sums of
// the serial run, at every fan-out, over whole ranges and ranges that
// start mid-stream; it draws one staging block from the given shard and
// returns it.
func TestFanOutStageMatchesSerial(t *testing.T) {
	for _, c := range fanCases(t) {
		stream := packed(t, c)
		n := c.plan.Bytes()
		for _, lo := range []int64{0, 1000} {
			want := buf.Alloc(c.src.Len())
			if err := c.plan.UnpackRange(buf.FromBytes(stream[lo:]), want, lo, n); err != nil {
				t.Fatal(err)
			}
			wantSums := pieceSums(stream[lo:], fanChunk)
			for _, summed := range []bool{false, true} {
				for _, w := range fanWorkers {
					out := buf.Alloc(c.src.Len())
					span, sums := int64(0), []uint64(nil)
					if summed {
						span, sums = fanChunk, make([]uint64, len(wantSums))
					}
					before := buf.PoolStatsSnapshot()
					if err := datatype.StageChunksW(c.plan, c.plan, c.src, out, lo, n, fanChunk, span, sums, 5, w); err != nil {
						t.Fatalf("%s lo=%d w=%d: %v", c.name, lo, w, err)
					}
					if d := buf.PoolStatsSnapshot().Sub(before); d.Shards[5].Gets != 1 || d.Shards[5].Puts != 1 {
						t.Errorf("%s lo=%d w=%d: staging drew %d and returned %d blocks on shard 5, want 1 and 1", c.name, lo, w, d.Shards[5].Gets, d.Shards[5].Puts)
					}
					if !bytes.Equal(out.Bytes(), want.Bytes()) {
						t.Errorf("%s lo=%d summed=%v w=%d: staged layout differs from PackRange+UnpackRange", c.name, lo, summed, w)
					}
					if !slices.Equal(sums, wantSums[:len(sums)]) {
						t.Errorf("%s lo=%d w=%d: staged sums differ from the serial stream's", c.name, lo, w)
					}
				}
			}
		}
	}
}

// TestSplitPointRelativeToLo: cuts fall on multiples of align counted
// from lo, so a summed range that starts mid-stream is cut between its
// pieces, never inside one.
func TestSplitPointRelativeToLo(t *testing.T) {
	const lo, align = 1000, 512
	hi := int64(lo + 10*align + 100)
	for _, w := range []int{2, 3, 8} {
		prev := int64(lo)
		for k := 0; k <= w; k++ {
			cut := datatype.SplitPoint(lo, hi, k, w, align)
			switch {
			case k == 0 && cut != lo, k == w && cut != hi:
				t.Errorf("w=%d: the range is cut at %d, want it to run from %d to %d", w, cut, lo, hi)
			case k < w && (cut-lo)%align != 0:
				t.Errorf("w=%d: cut %d is %d bytes past a piece boundary counted from %d", w, cut, (cut-lo)%align, lo)
			case cut < prev:
				t.Errorf("w=%d: cut %d before the previous cut %d", w, cut, prev)
			}
			prev = cut
		}
	}
	if got := datatype.SplitPoint(lo, hi, 1, 2, align); got != lo+5*align {
		t.Errorf("two-way cut of ten and a bit pieces at %d, want %d", got, lo+5*align)
	}
}

// TestFanOutAllocatesNothing: a 4 MiB summed PackChunks and staged
// move (its staging pooled), a chunk verify through a layout and over
// staging, and a contiguous Move allocate nothing at any fan-out, and
// leave no goroutine behind. Under the race detector the staged move's
// count is not asserted: its pooled staging is dropped there at random.
func TestFanOutAllocatesNothing(t *testing.T) {
	const n, chunk = 4 << 20, 512 << 10
	ty, err := datatype.Vector(n/8, 1, 2, datatype.Float64)
	if err != nil {
		t.Fatal(err)
	}
	if err := ty.Commit(); err != nil {
		t.Fatal(err)
	}
	plan, err := ty.CompilePlan(1)
	if err != nil {
		t.Fatal(err)
	}
	src, dst, out := buf.Alloc(int(ty.Extent())), buf.Alloc(n), buf.Alloc(int(ty.Extent()))
	sums := make([]uint64, n/chunk)
	set := []uint64{1<<(n/chunk) - 1}
	for _, w := range []int{2, 8} {
		before := runtime.NumGoroutine()
		calls := []struct {
			name string
			f    func()
			// pooled: the call draws its staging from buf's pool, which
			// the race runtime drains at random.
			pooled bool
		}{
			{"PackChunks", func() {
				if err := datatype.PackChunksW(plan, src, dst, 0, n, chunk, chunk, sums, w); err != nil {
					panic(err)
				}
			}, false},
			{"staged move", func() {
				if err := datatype.StageChunksW(plan, plan, src, out, 0, n, chunk, chunk, sums, 0, w); err != nil {
					panic(err)
				}
			}, true},
			{"fused-receiver verify", func() { datatype.ChecksumChunksW(plan, src, n, chunk, set, sums, w) }, false},
			{"staged-receiver verify", func() { datatype.ChecksumChunksW(nil, dst, n, chunk, set, sums, w) }, false},
			{"contiguous move", func() { datatype.MoveW(dst, 0, src, 0, n, w) }, false},
		}
		for _, c := range calls {
			if a := testing.AllocsPerRun(10, c.f); a != 0 && !(c.pooled && raceEnabled) {
				t.Errorf("w=%d: %s makes %v allocations per call, want 0", w, c.name, a)
			}
		}
		// A worker has run its share and signalled the join when the
		// call returns; it may still be unwinding, so allow it a moment.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() != before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("w=%d: %d goroutines after the fan-outs, %d before", w, after, before)
		}
	}
}

// TestFanOutMoveMatchesCopy: a contiguous Move lands copy's bytes at
// every fan-out, for lengths around a cache line and around
// ParallelPackThreshold, at odd offsets on both sides, and leaves every
// byte outside the destination range alone.
func TestFanOutMoveMatchesCopy(t *testing.T) {
	const th = datatype.ParallelPackThreshold
	const sOff, dOff = 3, 5
	src := buf.Alloc(th + 7 + sOff)
	for i, b := 0, src.Bytes(); i < len(b); i++ {
		b[i] = byte(i*131 + 7)
	}
	dst, want := buf.Alloc(th+7+dOff+1), make([]byte, th+7+dOff+1)
	for _, n := range []int64{0, 1, 63, 64, th - 1, th, th + 7} {
		for _, w := range fanWorkers {
			for i, b := 0, dst.Bytes(); i < len(b); i++ {
				b[i], want[i] = 0xee, 0xee
			}
			copy(want[dOff:dOff+n], src.Bytes()[sOff:sOff+n])
			datatype.MoveW(dst, dOff, src, sOff, n, w)
			if !bytes.Equal(dst.Bytes(), want) {
				t.Errorf("n=%d w=%d: moved bytes differ from copy's", n, w)
			}
		}
	}
	// Move itself, at the host's fan-out.
	datatype.Move(dst, dOff, src, sOff, th+7)
	if !bytes.Equal(dst.Bytes()[dOff:dOff+th+7], src.Bytes()[sOff:]) {
		t.Error("Move: moved bytes differ from copy's")
	}
}

// TestFanOutMoveVirtualAndOverlap: a move with a virtual side moves
// nothing, and overlapping ranges of one block give copy's (memmove's)
// result at every fan-out, in both directions.
func TestFanOutMoveVirtualAndOverlap(t *testing.T) {
	const n = datatype.ParallelPackThreshold + 7
	solid := buf.Alloc(n)
	for _, w := range fanWorkers {
		solid.Bytes()[0], solid.Bytes()[n-1] = 1, 2
		datatype.MoveW(solid, 0, buf.Virtual(n), 0, n, w)
		datatype.MoveW(buf.Virtual(n), 0, solid, 0, n, w)
		if solid.Bytes()[0] != 1 || solid.Bytes()[n-1] != 2 {
			t.Errorf("w=%d: a move from a virtual block wrote real bytes", w)
		}
	}
	shared := buf.Alloc(n + 64)
	for _, w := range fanWorkers {
		for _, shift := range []struct{ dOff, sOff int64 }{{64, 0}, {0, 64}, {1, 0}} {
			for i, b := 0, shared.Bytes(); i < len(b); i++ {
				b[i] = byte(i*131 + 7)
			}
			want := slices.Clone(shared.Bytes())
			copy(want[shift.dOff:shift.dOff+n], want[shift.sOff:shift.sOff+n])
			datatype.MoveW(shared, shift.dOff, shared, shift.sOff, n, w)
			if !bytes.Equal(shared.Bytes(), want) {
				t.Errorf("w=%d, dst at %d, src at %d: an overlapping move differs from copy's", w, shift.dOff, shift.sOff)
			}
		}
	}
}

package buf

import (
	"math/rand"
	"testing"
)

func TestChecksumChunkInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := make([]byte, 4096+5)
	rng.Read(data)

	var whole Checksum
	whole.Write(data)
	want := whole.Sum64()

	// Any segmentation of the same stream must fold to the same sum,
	// including cuts that land mid-word and single-byte dribbles.
	for trial := 0; trial < 50; trial++ {
		var c Checksum
		for p := data; len(p) > 0; {
			k := 1 + rng.Intn(len(p))
			c.Write(p[:k])
			p = p[k:]
		}
		if c.Sum64() != want {
			t.Fatalf("trial %d: segmented sum %#x != whole %#x", trial, c.Sum64(), want)
		}
		if c.len != int64(len(data)) {
			t.Fatalf("trial %d: Len %d != %d", trial, c.len, len(data))
		}
	}
}

func TestChecksumBindsTailAndLength(t *testing.T) {
	sum := func(p []byte) uint64 {
		var c Checksum
		c.Write(p)
		return c.Sum64()
	}
	if sum([]byte{1}) == sum([]byte{1, 0}) {
		t.Fatal("trailing zero byte not bound")
	}
	if sum([]byte{0}) == sum(nil) {
		t.Fatal("single zero byte collides with empty stream")
	}
	if sum([]byte{1, 2, 3}) == sum([]byte{1, 2, 4}) {
		t.Fatal("tail byte not bound")
	}
}

func TestChecksumSum64NonDestructive(t *testing.T) {
	var c Checksum
	c.Write([]byte{1, 2, 3})
	s1 := c.Sum64()
	if c.Sum64() != s1 {
		t.Fatal("Sum64 mutated state")
	}
	c.Write([]byte{4, 5})
	var d Checksum
	d.Write([]byte{1, 2, 3, 4, 5})
	if c.Sum64() != d.Sum64() {
		t.Fatal("writes after Sum64 diverge from a straight stream")
	}
}

func TestChecksumVirtualSymmetry(t *testing.T) {
	// Both ends skipping the same virtual length agree; length is bound.
	var a, b Checksum
	a.SkipVirtual(100)
	b.SkipVirtual(60)
	b.SkipVirtual(40)
	if a.Sum64() != b.Sum64() {
		t.Fatal("split virtual skips disagree")
	}
	var c Checksum
	c.SkipVirtual(99)
	if a.Sum64() == c.Sum64() {
		t.Fatal("virtual length not bound")
	}
	if ChecksumOf(Virtual(100)) != a.Sum64() {
		t.Fatal("ChecksumOf(virtual) disagrees with SkipVirtual")
	}
}

func TestChecksumZeroAlloc(t *testing.T) {
	data := make([]byte, 1024)
	var c Checksum
	allocs := testing.AllocsPerRun(100, func() {
		c.Reset()
		c.Write(data[:7])
		c.Write(data[7:])
		_ = c.Sum64()
	})
	if allocs != 0 {
		t.Fatalf("checksum path allocates %.1f times per run", allocs)
	}
}

// laneStream is the stream the detection tests damage: 4 KiB + 5
// bytes, so it holds whole lane groups, a ragged last group and a tail.
func laneStream() []byte {
	data := make([]byte, 4096+5)
	rand.New(rand.NewSource(29)).Read(data)
	return data
}

func sumOf(p []byte) uint64 {
	var c Checksum
	c.Write(p)
	return c.Sum64()
}

// TestChecksumDetectsEveryByteFlip damages every byte of the stream in
// turn, whole and by each single bit: each lane step is a bijection, so
// none of them may leave Sum64 unchanged.
func TestChecksumDetectsEveryByteFlip(t *testing.T) {
	data := laneStream()
	want := sumOf(data)
	for i := range data {
		for _, mask := range []byte{0xFF, 1 << (i % 8)} {
			data[i] ^= mask
			if sumOf(data) == want {
				t.Fatalf("flipping byte %d by %#x left the sum unchanged", i, mask)
			}
			data[i] ^= mask
		}
	}
}

// TestChecksumDetectsWordSwaps moves words: two words of one lane
// exchange places in its chain, two words of neighbouring lanes
// exchange lanes. The ordered lane fold must tell both from the
// original.
func TestChecksumDetectsWordSwaps(t *testing.T) {
	data := laneStream()
	want := sumOf(data)
	swap := func(i, j int) {
		for k := 0; k < 8; k++ {
			data[8*i+k], data[8*j+k] = data[8*j+k], data[8*i+k]
		}
	}
	for i := 0; i+4 < len(data)/8; i++ {
		for _, j := range []int{i + 4, i + 1} { // same lane, next lane
			swap(i, j)
			if sumOf(data) == want {
				t.Fatalf("swapping words %d and %d left the sum unchanged", i, j)
			}
			swap(i, j)
		}
	}
}

// TestChecksumBindsLength extends and truncates the stream: appended
// zero words, zero bytes and dropped tails all change the sum, from a
// stream that ends on a lane group and from one that ends in a tail.
func TestChecksumBindsLength(t *testing.T) {
	data := laneStream()
	for _, n := range []int{4096, len(data)} {
		want := sumOf(data[:n])
		for _, pad := range []int{1, 7, 8, 16, 32, 64} {
			if sumOf(append(append([]byte{}, data[:n]...), make([]byte, pad)...)) == want {
				t.Fatalf("%d-byte stream: appending %d zero bytes left the sum unchanged", n, pad)
			}
		}
		for _, cut := range []int{1, 5, 8, 13, 32} {
			if sumOf(data[:n-cut]) == want {
				t.Fatalf("%d-byte stream: dropping the last %d bytes left the sum unchanged", n, cut)
			}
		}
	}
	// All-zero streams hide nothing behind the seed either.
	zeros := make([]byte, 256)
	seen := map[uint64]int{}
	for n := 0; n <= len(zeros); n++ {
		s := sumOf(zeros[:n])
		if m, dup := seen[s]; dup {
			t.Fatalf("zero streams of %d and %d bytes collide", m, n)
		}
		seen[s] = n
	}
}

// TestChecksumEverySplitPoint re-chunks the stream at every split
// point — inside words, between lanes, inside and between 32-byte lane
// groups — and, for the first groups, at every pair of split points.
func TestChecksumEverySplitPoint(t *testing.T) {
	data := laneStream()
	want := sumOf(data)
	for s := 0; s <= len(data); s++ {
		var c Checksum
		c.Write(data[:s])
		c.Write(data[s:])
		if c.Sum64() != want || c.len != int64(len(data)) {
			t.Fatalf("split at %d: sum %#x, want %#x", s, c.Sum64(), want)
		}
	}
	for s1 := 0; s1 <= 80; s1++ {
		for s2 := s1; s2 <= 80; s2++ {
			var c Checksum
			c.Write(data[:s1])
			c.Write(data[s1:s2])
			c.Write(data[s2:])
			if c.Sum64() != want {
				t.Fatalf("splits at %d and %d: sum %#x, want %#x", s1, s2, c.Sum64(), want)
			}
		}
	}
}

// TestChecksumFoldRunsIsWritePerRun pins the run kernel's contract:
// from any carry and lane phase, FoldRuns over n strided runs equals
// Write of each run in order, whatever the run length — one to sixteen
// words and lengths that are not whole words — and whichever way the
// runs step through the buffer.
func TestChecksumFoldRunsIsWritePerRun(t *testing.T) {
	data := laneStream()
	for _, runLen := range []int64{1, 3, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64, 72, 128, 264} {
		for _, gap := range []int64{0, 1, 8, 24} {
			for _, step := range []int64{runLen + gap, -(runLen + gap)} {
				for n := int64(0); n <= 11; n++ {
					base := int64(7)
					if step < 0 {
						base -= 10 * step
					}
					for seed := 0; seed < 32; seed++ {
						var want, got Checksum
						want.Write(data[:seed]) // seed/8 words folded, seed%8 bytes carried
						got.Write(data[:seed])
						for k := int64(0); k < n; k++ {
							want.Write(data[base+k*step : base+k*step+runLen])
						}
						got.FoldRuns(data, base, step, runLen, n)
						if got.Sum64() != want.Sum64() || got.len != want.len {
							t.Fatalf("runLen %d step %d n %d seed %d: FoldRuns %#x (len %d), Write per run %#x (len %d)",
								runLen, step, n, seed, got.Sum64(), got.len, want.Sum64(), want.len)
						}
						// The state, not only the sum: a further Write
						// must land in the same lanes.
						want.Write(data[:13])
						got.Write(data[:13])
						if got.Sum64() != want.Sum64() {
							t.Fatalf("runLen %d step %d n %d seed %d: state after FoldRuns differs from Write per run",
								runLen, step, n, seed)
						}
					}
				}
			}
		}
	}
}

// TestChecksumFoldRunsBoundsPanic pins the batch bounds contract: runs
// that leave the buffer panic, forwards or backwards, on the word path
// and on the Write path.
func TestChecksumFoldRunsBoundsPanic(t *testing.T) {
	data := make([]byte, 256)
	for _, c := range []struct {
		name                  string
		base, step, runLen, n int64
	}{
		{"8B forward", 0, 16, 8, 17},
		{"32B forward", 8, 40, 32, 7},
		{"32B backward", 200, -40, 32, 7},
		{"5B forward", 0, 16, 5, 17},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: overrunning FoldRuns did not panic", c.name)
				}
			}()
			var sum Checksum
			sum.FoldRuns(data, c.base, c.step, c.runLen, c.n)
		}()
	}
}

// Package layout is the geometric vocabulary the packages share about
// where the payload bytes of a non-contiguous message live inside a
// user buffer: a Segment is one contiguous run of bytes, and Stats
// summarises a run list for the memory model (internal/memsim), which
// prices gather/scatter loops from segment count, gap regularity and
// block size. The derived datatype engine (internal/datatype) flattens
// its type maps into segments and computes their Stats in closed form;
// every workload of the benchmark harness is such a type. Jittered is
// the deterministic irregular spacing of the §4.7 study, shared by the
// harness and the memory model's tests.
package layout

// Segment is one contiguous run of Len bytes starting Off bytes into a
// buffer.
type Segment struct {
	Off int64
	Len int64
}

// End returns the first byte past the segment.
func (s Segment) End() int64 { return s.Off + s.Len }

// Stats summarises the geometry of a layout. The memory model uses
// these numbers to price gather/scatter loops: many small segments cost
// per-segment overhead, irregular gaps defeat prefetch streams (§4.7
// of the paper), and high density means good cache-line utilisation.
type Stats struct {
	Segments int   // number of contiguous runs
	Bytes    int64 // payload size
	Extent   int64 // span covered in the buffer

	MinBlock int64 // smallest segment length
	MaxBlock int64 // largest segment length
	AvgBlock float64

	MinGap int64 // smallest inter-segment gap (bytes between runs)
	MaxGap int64
	AvgGap float64
	// GapJitter is the coefficient of variation of the gaps
	// (stddev/mean); zero for perfectly regular strides. The prefetch
	// model in internal/memsim degrades with jitter.
	GapJitter float64

	// Density is Bytes/Extent in (0,1]; 1 means contiguous.
	Density float64
}

// Dense returns the statistics of one contiguous run of n bytes — a
// packed buffer, or the contiguous side of a fused transfer.
func Dense(n int64) Stats {
	if n <= 0 {
		return Stats{}
	}
	return Stats{
		Segments: 1,
		Bytes:    n,
		Extent:   n,
		MinBlock: n,
		MaxBlock: n,
		AvgBlock: float64(n),
		Density:  1,
	}
}

// Jittered builds the irregular variant of a strided layout for the
// §4.7 spacing study: count blocks of blockLen units whose gaps vary
// deterministically around the nominal stride by up to ±jitter times
// the gap. The segments come in ascending offset order and never
// overlap; blocks that touch are one segment, so jitter 0 reproduces
// the regular strided layout exactly, a dense stride as a single run.
// The pseudo-random sequence is a fixed xorshift so runs are
// reproducible without seeding.
func Jittered(count, blockLen, stride int64, jitter float64) []Segment {
	jitter = min(max(jitter, 0), 1)
	gap := max(stride-blockLen, 0)
	segs := make([]Segment, 0, count)
	var off int64
	state := uint64(0x9e3779b97f4a7c15)
	for i := int64(0); i < count; i++ {
		if n := len(segs); n > 0 && segs[n-1].End() == off {
			segs[n-1].Len += blockLen
		} else {
			segs = append(segs, Segment{Off: off, Len: blockLen})
		}
		// xorshift64* for a deterministic jitter in [-1, 1).
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		u := float64((state*0x2545f4914f6cdd1d)>>11) / float64(1<<53) // [0,1)
		delta := int64(float64(gap) * jitter * (2*u - 1))
		off += blockLen + gap + delta
	}
	return segs
}

package layout

// DescribeFast implements Fast for the strided layout: the canonical
// benchmark workload with up to 10⁸ blocks, priced in O(1).
func (v Strided) DescribeFast() (Stats, bool) {
	if v.Count <= 0 || v.BlockLen <= 0 {
		return Stats{}, true
	}
	if v.Stride == v.BlockLen || v.Count == 1 {
		n := v.Count * v.BlockLen
		return Stats{
			Segments: 1,
			Bytes:    n,
			Extent:   v.Extent(),
			MinBlock: n,
			MaxBlock: n,
			AvgBlock: float64(n),
			Density:  float64(n) / float64(v.Extent()),
		}, true
	}
	gap := v.Stride - v.BlockLen
	st := Stats{
		Segments: int(v.Count),
		Bytes:    v.Size(),
		Extent:   v.Extent(),
		MinBlock: v.BlockLen,
		MaxBlock: v.BlockLen,
		AvgBlock: float64(v.BlockLen),
		MinGap:   gap,
		MaxGap:   gap,
		AvgGap:   float64(gap),
	}
	st.Density = float64(st.Bytes) / float64(st.Extent)
	return st, true
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

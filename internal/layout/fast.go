package layout

// DescribeFast implements Fast for the contiguous layout.
func (c Contig) DescribeFast() (Stats, bool) {
	if c.N <= 0 {
		return Stats{}, true
	}
	return Stats{
		Segments: 1,
		Bytes:    c.N,
		Extent:   c.N,
		MinBlock: c.N,
		MaxBlock: c.N,
		AvgBlock: float64(c.N),
		Density:  1,
	}, true
}

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

// DescribeFast implements Fast for 2-D subarrays.
func (s Subarray2D) DescribeFast() (Stats, bool) {
	if s.Rows <= 0 || s.Cols <= 0 {
		return Stats{}, true
	}
	if s.Cols == s.ParentCols || s.Rows == 1 {
		n := s.Rows * s.Cols * s.Elem
		return Stats{
			Segments: 1,
			Bytes:    n,
			Extent:   s.Extent(),
			MinBlock: n,
			MaxBlock: n,
			AvgBlock: float64(n),
			Density:  float64(n) / float64(s.Extent()),
		}, true
	}
	row := s.Cols * s.Elem
	gap := (s.ParentCols - s.Cols) * s.Elem
	st := Stats{
		Segments: int(s.Rows),
		Bytes:    s.Size(),
		Extent:   s.Extent(),
		MinBlock: row,
		MaxBlock: row,
		AvgBlock: float64(row),
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
	st, _ := Contig{N: n}.DescribeFast()
	return st
}

package memsim

import (
	"fmt"
	"sort"
	"sync"
)

// Transfer-path names shared between the runtime (which records
// observations) and the recommendation engine (which consumes fits).
// Each names one engine whose end-to-end cost a persistent operation
// can observe on the virtual clock.
const (
	// PathTypedSend is the direct derived-datatype send: the chunked
	// staging path of SendType, the cost the Hunold/Träff guideline
	// bounds by pack+send.
	PathTypedSend = "typed-send"
	// PathPackedSend is an explicit pack followed by a contiguous send
	// of the packed bytes — the decomposition side of the guideline.
	PathPackedSend = "packed-send"
	// PathContigSend is the contiguous reference send.
	PathContigSend = "contig-send"
)

// MinObservations is how many samples a path needs before its fit
// replaces the calibrated prediction: below it the observed hierarchy
// reports no fit and callers stay on the static model.
const MinObservations = 3

// Fit is a latency+bandwidth line fitted to one path's observed
// samples: a transfer of n bytes is predicted to cost
// Alpha + InvBW·n seconds.
type Fit struct {
	Path    string
	Samples int
	// Alpha is the fixed per-message cost in seconds; InvBW the
	// marginal cost in seconds per byte. Both are clamped non-negative
	// (a fitted negative latency or bandwidth term is measurement
	// noise, not physics).
	Alpha float64
	InvBW float64
}

// Predict returns the fitted cost of an n-byte transfer.
func (f Fit) Predict(n int64) float64 {
	if n < 0 {
		n = 0
	}
	return f.Alpha + f.InvBW*float64(n)
}

// Bandwidth returns the fitted asymptotic bandwidth in bytes/second
// (0 when the marginal term is zero).
func (f Fit) Bandwidth() float64 {
	if f.InvBW <= 0 {
		return 0
	}
	return 1 / f.InvBW
}

// String formats the fit for reports.
func (f Fit) String() string {
	return fmt.Sprintf("%s: %d samples, alpha %.3gs, %.3g GB/s", f.Path, f.Samples, f.Alpha, f.Bandwidth()/1e9)
}

// ObservedHierarchy accumulates measured (bytes, seconds) samples per
// transfer path and fits a latency+bandwidth line to each: the
// self-tuning loop that lets a recommender degrade from calibrated to
// observed per installation. Persistent operations feed it their
// per-Start virtual-clock cost (mpi.Comm.ObserveInto); once a path has
// MinObservations samples, Fit returns an online-fitted cost model
// that core.Recommend prefers over the static prediction.
//
// The accumulator is O(1) per sample (running OLS moments) and safe
// for concurrent use by all ranks of a run.
type ObservedHierarchy struct {
	mu    sync.Mutex
	base  *Hierarchy
	paths map[string]*pathMoments
}

// pathMoments holds the running OLS moments of one path's samples,
// x = bytes, y = seconds, plus per-size buckets so predictions at an
// observed size return the measured mean exactly instead of the
// line's interpolation (transfer cost is only piecewise affine across
// the eager/rendezvous regimes, so the global line can misorder two
// engines at a size where both were actually measured).
type pathMoments struct {
	n                        int
	sumX, sumY, sumXX, sumXY float64
	minX, maxX               float64
	buckets                  map[int64]*sizeBucket
}

// sizeBucket accumulates the samples of one exact transfer size.
type sizeBucket struct {
	n   int
	sum float64
}

// NewObservedHierarchy creates an empty observed model over a
// calibrated base hierarchy (may be nil when only fits are wanted).
func NewObservedHierarchy(base *Hierarchy) *ObservedHierarchy {
	return &ObservedHierarchy{base: base, paths: make(map[string]*pathMoments)}
}

// Base returns the calibrated hierarchy the observations refine.
func (o *ObservedHierarchy) Base() *Hierarchy { return o.base }

// Observe records one measured transfer: path moved bytes in seconds
// of virtual time. Non-positive sizes and negative times are ignored.
func (o *ObservedHierarchy) Observe(path string, bytes int64, seconds float64) {
	if bytes <= 0 || seconds < 0 {
		return
	}
	x, y := float64(bytes), seconds
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.paths[path]
	if m == nil {
		m = &pathMoments{minX: x, maxX: x, buckets: make(map[int64]*sizeBucket)}
		o.paths[path] = m
	}
	b := m.buckets[bytes]
	if b == nil {
		b = &sizeBucket{}
		m.buckets[bytes] = b
	}
	b.n++
	b.sum += y
	if x < m.minX {
		m.minX = x
	}
	if x > m.maxX {
		m.maxX = x
	}
	m.n++
	m.sumX += x
	m.sumY += y
	m.sumXX += x * x
	m.sumXY += x * y
}

// Samples returns how many observations path has accumulated.
func (o *ObservedHierarchy) Samples(path string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	if m := o.paths[path]; m != nil {
		return m.n
	}
	return 0
}

// Paths lists the observed path names in sorted order.
func (o *ObservedHierarchy) Paths() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.paths))
	for k := range o.paths {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Fit returns the fitted cost line of a path, and whether the path has
// enough samples (MinObservations) for the fit to be usable. With size
// variation the line is the ordinary least-squares fit; when every
// sample is the same size the fit degenerates to a pure bandwidth
// through the origin, exact at the observed size.
func (o *ObservedHierarchy) Fit(path string) (Fit, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.paths[path]
	if m == nil || m.n < MinObservations {
		return Fit{}, false
	}
	f := Fit{Path: path, Samples: m.n}
	n := float64(m.n)
	det := n*m.sumXX - m.sumX*m.sumX
	if m.maxX > m.minX && det > 0 {
		f.InvBW = (n*m.sumXY - m.sumX*m.sumY) / det
		f.Alpha = (m.sumY - f.InvBW*m.sumX) / n
	} else {
		// One observed size: all cost is marginal at that size.
		f.InvBW = m.sumY / m.sumX
	}
	if f.InvBW < 0 {
		// A negative marginal cost is noise; keep the mean as a flat
		// per-message prediction instead.
		f.InvBW = 0
		f.Alpha = m.sumY / n
	}
	if f.Alpha < 0 {
		f.Alpha = 0
	}
	return f, true
}

// Predict returns the observed cost of an n-byte transfer on a path,
// or false when the path has too few samples (MinObservations in
// total). At a size that was itself observed the prediction is the
// measured mean of that size's samples — exact where it matters most,
// since a recommender is usually asked about the transfers it just
// watched; anywhere else it is the fitted line.
func (o *ObservedHierarchy) Predict(path string, n int64) (float64, bool) {
	o.mu.Lock()
	m := o.paths[path]
	if m != nil && m.n >= MinObservations {
		if b := m.buckets[n]; b != nil && b.n > 0 {
			mean := b.sum / float64(b.n)
			o.mu.Unlock()
			return mean, true
		}
	}
	o.mu.Unlock()
	f, ok := o.Fit(path)
	if !ok {
		return 0, false
	}
	return f.Predict(n), true
}

// Package stats provides the small statistical toolkit used throughout the
// measurement reproduction: summary statistics, confidence intervals,
// empirical CDFs, histograms, and exponentially weighted averages. All
// functions are deterministic and allocation-conscious; the benchmark
// harness calls them on traces with millions of samples.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// of xs using the normal approximation (the paper reports "±18 Mbps with
// 95% confidence" in exactly this style).
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(n))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample (which it copies and sorts).
func NewCDF(xs []float64) *CDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the number of samples backing the CDF.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// Index of the first element > x.
	i := sort.SearchFloat64s(c.sorted, x)
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	return quantileSorted(c.sorted, q)
}

// Points evaluates the CDF at n evenly spaced x positions spanning the
// sample range, returning (xs, ps) series suitable for plotting — this is
// how the Fig. 9 frame-length CDFs are rendered.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n < 2 {
		return nil, nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		xs[i] = x
		ps[i] = c.At(x)
	}
	return xs, ps
}

// Histogram counts samples into nbins equal-width bins over [lo, hi].
// Samples outside the range are clamped into the edge bins.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram builds a histogram of xs with nbins bins over [lo, hi].
func NewHistogram(xs []float64, lo, hi float64, nbins int) *Histogram {
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, nbins)}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add inserts one sample.
func (h *Histogram) Add(x float64) {
	if len(h.Counts) == 0 {
		return
	}
	t := (x - h.Lo) / (h.Hi - h.Lo)
	i := int(t * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// BinCenter returns the center x value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}

// Fraction returns the fraction of samples in bin i.
func (h *Histogram) Fraction(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.Total)
}

// EWMA is an exponentially weighted moving average, used by the rate
// adaptation logic to smooth SNR and loss estimates.
type EWMA struct {
	Alpha float64 // weight of the newest sample, in (0, 1]
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given new-sample weight.
func NewEWMA(alpha float64) *EWMA { return &EWMA{Alpha: alpha} }

// Update folds in a new sample and returns the updated average.
func (e *EWMA) Update(x float64) float64 {
	if !e.init {
		e.value = x
		e.init = true
		return x
	}
	e.value = e.Alpha*x + (1-e.Alpha)*e.value
	return e.value
}

// Value returns the current average (0 before the first sample).
func (e *EWMA) Value() float64 { return e.value }

// Initialized reports whether any sample has been folded in.
func (e *EWMA) Initialized() bool { return e.init }

// Reset clears the average.
func (e *EWMA) Reset() { e.value = 0; e.init = false }

// LinSpace returns n evenly spaced values from lo to hi inclusive.
func LinSpace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}

// DB converts a linear power ratio to decibels.
func DB(linear float64) float64 { return 10 * math.Log10(linear) }

// MilliwattToDBm converts milliwatts to dBm. Zero or negative power maps
// to -Inf dBm.
func MilliwattToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

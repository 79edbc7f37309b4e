// Package stats provides the small statistical toolkit used throughout the
// benchmark harness: empirical CDFs, quantiles, boxplot summaries and the
// replication estimators.
//
// All functions are deterministic and allocation-conscious.
package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Sample accumulates float64 observations for offline summary statistics.
// The zero value is ready to use. Every summary statistic (Mean, StdDev,
// Min, Max, Quantile, Median, Summarize) returns NaN — never panics,
// never a fabricated zero — when the sample is empty, so callers that
// may render absent signals (e.g. MOS with audio disabled) must either
// check Len or route values through a NaN-aware renderer.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddAll records every observation in xs.
func (s *Sample) AddAll(xs []float64) {
	s.xs = append(s.xs, xs...)
	s.sorted = false
}

// Len reports the number of observations recorded.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the observations in sorted order. The returned slice is
// owned by the Sample and must not be modified.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the population standard deviation, or NaN for an empty
// sample.
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n == 0 {
		return math.NaN()
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Min returns the smallest observation, or NaN for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation, or NaN for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics (type-7 estimator, the default of
// R and NumPy). It returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	n := len(s.xs)
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	if hi >= n {
		return s.xs[n-1]
	}
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// SampleStdDev returns the sample (Bessel-corrected, n-1) standard
// deviation. Unlike StdDev it estimates the spread of the population the
// observations were drawn from, which is what replication error bars
// need. It returns NaN when fewer than two observations are recorded:
// with n=1 the spread is undefined, and NaN flows through the harness's
// existing absent-signal contract (rendered "-", omitted from JSON).
func (s *Sample) SampleStdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// StdErr returns the standard error of the mean, SampleStdDev()/sqrt(n).
// NaN when fewer than two observations are recorded.
func (s *Sample) StdErr() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	return s.SampleStdDev() / math.Sqrt(float64(n))
}

// CI95 returns the half-width of a 95% confidence interval for the mean:
// 1.96 * StdErr(), the normal (z) approximation. For the small replica
// counts typical of a campaign (n in the single digits) this understates
// the interval a Student-t critical value would give — the harness trades
// that bias for a constant that is deterministic and dependency-free.
// NaN when fewer than two observations are recorded.
func (s *Sample) CI95() float64 {
	return 1.96 * s.StdErr()
}

// GobEncode implements gob.GobEncoder. Observations are encoded as raw
// IEEE-754 bit patterns in their insertion order: Mean sums in slice
// order, so preserving both is what lets a decoded Sample reproduce
// every summary statistic bit-for-bit (NaN and ±Inf included), which
// the persistent result store's byte-identical warm reruns rely on.
func (s *Sample) GobEncode() ([]byte, error) {
	return s.AppendBits(make([]byte, 0, 8*(len(s.xs)+1))), nil
}

// AppendBits appends the GobEncode layout to b: the observation count
// as a little-endian uint64, then each observation's raw bits in
// insertion order. GobDecode reads it back.
func (s *Sample) AppendBits(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.xs)))
	for _, x := range s.xs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// GobDecode implements gob.GobDecoder.
func (s *Sample) GobDecode(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("stats: sample encoding truncated (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	// Divide rather than multiply: 8*n can wrap for a crafted count,
	// sneaking past the check and panicking in make below.
	if n != uint64(len(data)-8)/8 || (len(data)-8)%8 != 0 {
		return fmt.Errorf("stats: sample encoding claims %d observations in %d bytes", n, len(data))
	}
	s.xs = make([]float64, n)
	for i := range s.xs {
		s.xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i+1):]))
	}
	s.sorted = false
	return nil
}

// Summary is a boxplot-style five-number summary plus mean and stddev.
type Summary struct {
	N                int
	Min, Max         float64
	P25, P50, P75    float64
	Mean, StdDev     float64
	WhiskLo, WhiskHi float64 // Tukey whiskers: farthest points within 1.5*IQR
}

// Summarize computes the Summary of the sample.
func (s *Sample) Summarize() Summary {
	sum := Summary{N: s.Len()}
	if sum.N == 0 {
		nan := math.NaN()
		sum.Min, sum.Max, sum.P25, sum.P50, sum.P75 = nan, nan, nan, nan, nan
		sum.Mean, sum.StdDev, sum.WhiskLo, sum.WhiskHi = nan, nan, nan, nan
		return sum
	}
	sum.Min = s.Min()
	sum.Max = s.Max()
	sum.P25 = s.Quantile(0.25)
	sum.P50 = s.Quantile(0.50)
	sum.P75 = s.Quantile(0.75)
	sum.Mean = s.Mean()
	sum.StdDev = s.StdDev()
	iqr := sum.P75 - sum.P25
	loFence := sum.P25 - 1.5*iqr
	hiFence := sum.P75 + 1.5*iqr
	sum.WhiskLo, sum.WhiskHi = sum.Max, sum.Min
	for _, x := range s.Values() {
		if x >= loFence && x < sum.WhiskLo {
			sum.WhiskLo = x
		}
		if x <= hiFence && x > sum.WhiskHi {
			sum.WhiskHi = x
		}
	}
	return sum
}

func (m Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g p25=%.3g med=%.3g p75=%.3g max=%.3g mean=%.3g sd=%.3g",
		m.N, m.Min, m.P25, m.P50, m.P75, m.Max, m.Mean, m.StdDev)
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	xs []float64 // sorted observations
}

// NewCDF builds an empirical CDF from xs (a copy is taken).
func NewCDF(xs []float64) *CDF {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return &CDF{xs: cp}
}

// Len reports the number of underlying observations.
func (c *CDF) Len() int { return len(c.xs) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	// Count of observations <= x.
	i := sort.Search(len(c.xs), func(i int) bool { return c.xs[i] > x })
	return float64(i) / float64(len(c.xs))
}

// Inverse returns the smallest x with P(X <= x) >= p.
func (c *CDF) Inverse(p float64) float64 {
	if len(c.xs) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.xs[0]
	}
	if p >= 1 {
		return c.xs[len(c.xs)-1]
	}
	idx := int(math.Ceil(p*float64(len(c.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.xs) {
		idx = len(c.xs) - 1
	}
	return c.xs[idx]
}

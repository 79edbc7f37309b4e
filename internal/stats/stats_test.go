package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Len() != 0 {
		t.Fatalf("Len of empty = %d", s.Len())
	}
	for name, v := range map[string]float64{
		"mean": s.Mean(), "sd": s.StdDev(), "min": s.Min(), "max": s.Max(),
		"q": s.Quantile(0.5),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty sample = %v, want NaN", name, v)
		}
	}
}

func TestSampleBasics(t *testing.T) {
	s := NewSample(5)
	s.AddAll([]float64{4, 1, 3, 2, 5})
	if got := s.Mean(); !almost(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
	if got := s.Median(); !almost(got, 3, 1e-12) {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := s.Min(); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := s.Max(); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
	// Population stddev of 1..5 = sqrt(2).
	if got := s.StdDev(); !almost(got, math.Sqrt2, 1e-12) {
		t.Errorf("StdDev = %v, want sqrt(2)", got)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := NewSample(4)
	s.AddAll([]float64{10, 20, 30, 40})
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5},
		{-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); !almost(got, c.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSummary(t *testing.T) {
	s := NewSample(0)
	s.AddAll([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}) // 100 is an outlier
	sum := s.Summarize()
	if sum.N != 10 {
		t.Fatalf("N = %d", sum.N)
	}
	if sum.Max != 100 || sum.Min != 1 {
		t.Errorf("min/max = %v/%v", sum.Min, sum.Max)
	}
	if sum.WhiskHi >= 100 {
		t.Errorf("whisker includes outlier: %v", sum.WhiskHi)
	}
	if sum.WhiskLo != 1 {
		t.Errorf("WhiskLo = %v, want 1", sum.WhiskLo)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Sample
	sum := s.Summarize()
	if sum.N != 0 || !math.IsNaN(sum.Mean) {
		t.Errorf("empty summary = %+v", sum)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almost(got, tc.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFInverse(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	cases := []struct{ p, want float64 }{
		{0, 10}, {0.25, 10}, {0.26, 20}, {0.5, 20}, {0.75, 30}, {1, 40},
	}
	for _, tc := range cases {
		if got := c.Inverse(tc.p); got != tc.want {
			t.Errorf("Inverse(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestCDFPointsSmall(t *testing.T) {
	c := NewCDF([]float64{5})
	if got := c.At(4.9); got != 0 {
		t.Errorf("single-point At(4.9) = %v, want 0", got)
	}
	if got := c.At(5); got != 1 {
		t.Errorf("single-point At(5) = %v, want 1", got)
	}
	for _, p := range []float64{0, 0.5, 1} {
		if got := c.Inverse(p); got != 5 {
			t.Errorf("single-point Inverse(%v) = %v, want 5", p, got)
		}
	}
	var empty CDF
	if empty.Len() != 0 || !math.IsNaN(empty.At(0)) || !math.IsNaN(empty.Inverse(0.5)) {
		t.Errorf("empty CDF: Len %d, At %v, Inverse %v", empty.Len(), empty.At(0), empty.Inverse(0.5))
	}
}

// Property: CDF is monotone nondecreasing and bounded by [0, 1].
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		sort.Float64s(probes)
		prev := 0.0
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := c.At(p)
			if v < 0 || v > 1 || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and within [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample(len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Add(v)
			}
		}
		if s.Len() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev || v < s.Min() || v > s.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := NewSample(3)
	s.AddAll([]float64{1, 2, 3})
	if str := s.Summarize().String(); str == "" {
		t.Error("empty String()")
	}
}

// Gob round-trips must preserve insertion order and exact bit patterns:
// Mean sums in slice order, so a reordered decode could change summary
// statistics in the last ulp and break byte-identical warm reruns.
func TestSampleGobRoundTrip(t *testing.T) {
	s := NewSample(0)
	for _, x := range []float64{3.5, -0.1, math.Inf(1), 1e-300, math.NaN(), 0.3, -0.0} {
		s.Add(x)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() {
		t.Fatalf("len = %d, want %d", back.Len(), s.Len())
	}
	for i := range s.xs {
		if math.Float64bits(back.xs[i]) != math.Float64bits(s.xs[i]) {
			t.Errorf("x[%d] = %x, want %x", i, math.Float64bits(back.xs[i]), math.Float64bits(s.xs[i]))
		}
	}

	var empty Sample
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(&empty); err != nil {
		t.Fatal(err)
	}
	var emptyBack Sample
	if err := gob.NewDecoder(&buf).Decode(&emptyBack); err != nil {
		t.Fatal(err)
	}
	if emptyBack.Len() != 0 {
		t.Errorf("empty round-trip has %d observations", emptyBack.Len())
	}
}

func TestSampleGobDecodeRejectsGarbage(t *testing.T) {
	var s Sample
	if err := s.GobDecode([]byte{1, 2, 3}); err == nil {
		t.Error("truncated header accepted")
	}
	// Claims 4 observations but carries none.
	bad := make([]byte, 8)
	bad[0] = 4
	if err := s.GobDecode(bad); err == nil {
		t.Error("length mismatch accepted")
	}
	// A crafted count where 8*n wraps to a small value must error, not
	// panic in make (the persisted-store path feeds untrusted bytes
	// here and treats errors as cache misses).
	overflow := make([]byte, 16)
	binary.LittleEndian.PutUint64(overflow, 0x2000000000000001)
	if err := s.GobDecode(overflow); err == nil {
		t.Error("overflowing observation count accepted")
	}
	// Trailing partial observation.
	if err := s.GobDecode(make([]byte, 13)); err == nil {
		t.Error("non-multiple-of-8 payload accepted")
	}
}

func TestReplicationStatsSmall(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.SampleStdDev()) || !math.IsNaN(s.StdErr()) || !math.IsNaN(s.CI95()) {
		t.Error("empty sample must have NaN replication stats")
	}
	s.Add(3.5)
	if !math.IsNaN(s.SampleStdDev()) || !math.IsNaN(s.StdErr()) || !math.IsNaN(s.CI95()) {
		t.Error("n=1 spread is undefined and must be NaN, not zero")
	}
	s.Add(3.5)
	if got := s.SampleStdDev(); got != 0 {
		t.Errorf("two equal observations: stddev = %v, want 0", got)
	}
	if got := s.CI95(); got != 0 {
		t.Errorf("two equal observations: ci95 = %v, want 0", got)
	}
}

func TestReplicationStatsKnownValues(t *testing.T) {
	var s Sample
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Population stddev of this classic set is exactly 2; the sample
	// (n-1) version is sqrt(32/7).
	if got := s.StdDev(); got != 2 {
		t.Errorf("population stddev = %v, want 2", got)
	}
	want := math.Sqrt(32.0 / 7.0)
	if got := s.SampleStdDev(); math.Abs(got-want) > 1e-15 {
		t.Errorf("sample stddev = %v, want %v", got, want)
	}
	if got, want := s.StdErr(), want/math.Sqrt(8); math.Abs(got-want) > 1e-15 {
		t.Errorf("stderr = %v, want %v", got, want)
	}
	if got, want := s.CI95(), 1.96*s.StdErr(); got != want {
		t.Errorf("ci95 = %v, want %v", got, want)
	}
}

// Property checks across deterministic pseudo-random samples: the
// Bessel correction keeps SampleStdDev >= StdDev, stderr shrinks as
// 1/sqrt(n), and shifting a sample leaves its spread alone.
func TestReplicationStatsProperties(t *testing.T) {
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		// xorshift64*, deterministic across runs.
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return float64(rng%10_000) / 100.0
	}
	for n := 2; n <= 64; n *= 2 {
		var s, shifted Sample
		for i := 0; i < n; i++ {
			x := next()
			s.Add(x)
			shifted.Add(x + 1e6)
		}
		pop, samp := s.StdDev(), s.SampleStdDev()
		if samp < pop {
			t.Errorf("n=%d: sample stddev %v < population %v", n, samp, pop)
		}
		if want := pop * math.Sqrt(float64(n)/float64(n-1)); math.Abs(samp-want) > 1e-9*want {
			t.Errorf("n=%d: Bessel relation broken: %v vs %v", n, samp, want)
		}
		if got, want := s.StdErr(), samp/math.Sqrt(float64(n)); got != want {
			t.Errorf("n=%d: stderr = %v, want %v", n, got, want)
		}
		if s.CI95() < s.StdErr() {
			t.Errorf("n=%d: ci95 narrower than one stderr", n)
		}
		// Spread is translation-invariant (up to float cancellation at
		// a 1e6 offset).
		if d := math.Abs(shifted.SampleStdDev() - samp); d > 1e-6 {
			t.Errorf("n=%d: shift changed stddev by %v", n, d)
		}
	}
}

// No read reorders a sample: every statistic leaves the encoding (and
// so the insertion order Mean sums in) exactly as it was.
func TestReplicationStatsPreserveGob(t *testing.T) {
	var s Sample
	s.AddAll([]float64{5, 1, 3, 0.1, 0.2})
	before := s.AppendBits(nil)
	for _, r := range []struct {
		name string
		read func()
	}{
		{"Values", func() { s.Values() }},
		{"Min", func() { s.Min() }},
		{"Max", func() { s.Max() }},
		{"Quantile", func() { s.Quantile(0.3) }},
		{"Median", func() { s.Median() }},
		{"Summarize", func() { s.Summarize() }},
		{"Mean", func() { s.Mean() }},
		{"StdDev", func() { s.StdDev() }},
		{"SampleStdDev", func() { s.SampleStdDev() }},
		{"StdErr", func() { s.StdErr() }},
		{"CI95", func() { s.CI95() }},
	} {
		r.read()
		if !bytes.Equal(before, s.AppendBits(nil)) {
			t.Errorf("%s reordered the sample", r.name)
		}
	}
}

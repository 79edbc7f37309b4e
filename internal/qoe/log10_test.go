package qoe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// log10Edges lists the inputs where a log's reduction or its special
// cases can go wrong: 1 and its neighbour, Sqrt2/2*2^k and both
// neighbours for every normal k (the branch of archLog's f1 <= Sqrt2/2
// test), subnormals, ±0, negatives, ±Inf and NaNs.
func log10Edges() []float64 {
	xs := []float64{
		1, math.Nextafter(1, 2), math.Nextafter(1, 0), 2, 10, 255 * 255,
		math.SmallestNonzeroFloat64, 1.16e-309, math.Float64frombits(1<<52 - 1),
		math.Float64frombits(1 << 51), math.Float64frombits(0x0000000000000123),
		math.Float64frombits(1 << 52), math.MaxFloat64,
		0, math.Copysign(0, -1), -1, -math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling NaN
		math.Float64frombits(0x7FFFFFFFFFFFFFFF),
		math.Float64frombits(0xFFF8000000000000), // NaN with the sign bit set
	}
	for k := -1021; k <= 1024; k++ {
		x := math.Ldexp(math.Sqrt2/2, k)
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	return xs
}

// log10Inputs returns n seeded inputs of four kinds, in turn: random
// positive normal bit patterns, VIF-like arguments 1 + v with v spread
// over 40 binades, values just above 1, and raw 64-bit patterns
// (subnormals, negatives, infinities and NaNs among them).
func log10Inputs(n int) []float64 {
	xs := make([]float64, n)
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { // splitmix64
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
	for i := range xs {
		r := next()
		switch i % 4 {
		case 0:
			xs[i] = math.Float64frombits((1+r>>52%0x7FE)<<52 | r&(1<<52-1))
		case 1:
			v := float64(r>>11) / (1 << 53)
			xs[i] = 1 + math.Ldexp(v, int(r&63)-40)
		case 2:
			xs[i] = math.Float64frombits(0x3FF0000000000000 + r&(1<<20-1))
		case 3:
			xs[i] = math.Float64frombits(r)
		}
	}
	return xs
}

// log10Digest evaluates log10Vec over xs in chunks of 4099, so the
// scalar tail runs too, checks every result against log10 (on amd64,
// math.Log10 itself), and returns the SHA-256 of the result bits.
func log10Digest(t *testing.T, xs []float64) string {
	t.Helper()
	out := make([]float64, len(xs))
	for lo := 0; lo < len(xs); lo += 4099 {
		hi := min(lo+4099, len(xs))
		log10Vec(out[lo:hi], xs[lo:hi])
	}
	h := sha256.New()
	var b [8]byte
	for i, v := range out {
		bits := math.Float64bits(v)
		if want := math.Float64bits(log10(xs[i])); bits != want {
			t.Fatalf("log10Vec(%#016x) = %#016x, log10 gives %#016x",
				math.Float64bits(xs[i]), bits, want)
		}
		binary.LittleEndian.PutUint64(b[:], bits)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLog10MatchesArchLog pins log10 and log10Vec to the bits amd64's
// math.Log10 returns. On amd64 log10 is math.Log10, so every
// comparison with it checks the kernel against the oracle; elsewhere
// (386 in CI) the pinned values and digests carry amd64's bits, since
// the pure-Go math.Log10 there differs at Sqrt2/2*2^k and on
// subnormals.
func TestLog10MatchesArchLog(t *testing.T) {
	// Named cases with amd64's bits. At 2^32*Sqrt2/2 archLog's <= branch
	// gives log ...5108 and log10 ...FC17; the pure-Go math.Log, with its
	// < branch, gives ...5107 and ...FC16.
	for _, c := range []struct {
		x    float64
		want uint64
	}{
		{1, 0},
		{math.Nextafter(1, 2), 0x3C9BCB7B1526E50D},
		{math.Ldexp(math.Sqrt2/2, 32), 0x4022F703035CFC17},
		{1.16e-309, 0xC0733EE7E5012EDA}, // archLog's -307.93; the true log10 is -308.93
		{0, 0xFFF0000000000000},
		{math.Copysign(0, -1), 0xFFF0000000000000},
		{-1, 0x7FF8000000000001},
		{math.Inf(-1), 0x7FF8000000000001},
		{math.Inf(1), 0x7FF0000000000000},
		{math.Float64frombits(0x7FF8000000000123), 0x7FF8000000000123},
	} {
		if got := math.Float64bits(log10(c.x)); got != c.want {
			t.Errorf("log10(%g) = %#016x, want %#016x", c.x, got, c.want)
		}
	}

	// The edge table, with each input in every lane of a 4-wide block.
	edges := log10Edges()
	for shift := 1; shift < 4; shift++ {
		log10Digest(t, append([]float64{1, 1, 1}[:shift], edges...))
	}
	const edgeDigest = "69cc12d41ef2e8dbed69149c98c5a5036ea46fea88d18f24f5e5cd8d0abba1ac"
	if got := log10Digest(t, edges); got != edgeDigest {
		t.Errorf("edge table digest %s, want %s", got, edgeDigest)
	}

	// A few million seeded inputs, pinned by digest.
	xs := log10Inputs(3 << 20)
	const inputDigest = "b0281647a169437aba2b9241649491637609e4abd99de3c47d8f35a8bb8a26c8"
	if got := log10Digest(t, xs); got != inputDigest {
		t.Errorf("seeded input digest %s, want %s", got, inputDigest)
	}

	// Every length through the 4-wide blocks and the tail, in place and
	// into a separate dst that must not be written past its end.
	for n := 0; n <= 67; n++ {
		src := xs[n*67 : n*67+n]
		inPlace := append([]float64(nil), src...)
		log10Vec(inPlace, inPlace)
		out := make([]float64, n+1)
		out[n] = 42
		log10Vec(out[:n], src)
		for i, x := range src {
			want := math.Float64bits(log10(x))
			if got := math.Float64bits(inPlace[i]); got != want {
				t.Fatalf("n=%d in place: element %d = %#016x, want %#016x", n, i, got, want)
			}
			if got := math.Float64bits(out[i]); got != want {
				t.Fatalf("n=%d: element %d = %#016x, want %#016x", n, i, got, want)
			}
		}
		if out[n] != 42 {
			t.Fatalf("n=%d: log10Vec wrote past len(dst)", n)
		}
	}
}

// BenchmarkLog10Vec times 4096 VIF-like arguments through log10Vec and
// through a math.Log10 loop.
func BenchmarkLog10Vec(b *testing.B) {
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1 + math.Ldexp(float64(i), -8)
	}
	out := make([]float64, len(xs))
	b.Run("log10Vec", func(b *testing.B) {
		for range b.N {
			log10Vec(out, xs)
		}
	})
	b.Run("math.Log10", func(b *testing.B) {
		for range b.N {
			for i, x := range xs {
				out[i] = math.Log10(x)
			}
		}
	})
}

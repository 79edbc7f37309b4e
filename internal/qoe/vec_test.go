package qoe

import (
	"math"
	"math/rand"
	"testing"
)

// refScale/refAxpy are the scalar recurrences the SIMD kernels must
// reproduce bit for bit.
func refScale(dst, src []float64, k float64) {
	for i := range dst {
		dst[i] = src[i] * k
	}
}

func refAxpy(dst, src []float64, k float64) {
	for i := range dst {
		dst[i] += src[i] * k
	}
}

// TestVecKernelsBitIdentical drives scaleVec/axpyVec, mulVec and
// convTaps at one and two taps across every length that exercises the
// wide blocks, the narrow blocks and the scalar tails, and demands
// exact bit equality with the scalar loops — including for values
// whose products round: bit identity, not tolerance, is the
// simulator's contract.
func TestVecKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n <= 67; n++ {
		src := make([]float64, n+3) // longer than dst, as convValid passes it
		for i := range src {
			src[i] = (rng.Float64() - 0.5) * 513.7
		}
		base := make([]float64, n)
		for i := range base {
			base[i] = (rng.Float64() - 0.5) * 100003.1
		}
		stacked := append(append([]float64(nil), base...), src...)
		for _, k := range []float64{0, 1, -1, 0.1234567891234, math.Pi, -1e-17, 3e15} {
			want := append([]float64(nil), base...)
			refScale(want, src, k)
			got := append([]float64(nil), base...)
			scaleVec(got, src, k)
			checkBits(t, "scaleVec", n, k, got, want)
			got = append(got[:0], base...)
			convTaps(got, src, []float64{k}, 1)
			checkBits(t, "convTaps taps=1", n, k, got, want)

			want = append(want[:0:0], base...)
			refAxpy(want, src, k)
			got = append(got[:0:0], base...)
			axpyVec(got, src, k)
			checkBits(t, "axpyVec", n, k, got, want)
			// Taps 1 and k over base then src (stride n) are the axpy:
			// base*1 is exact.
			got = append(got[:0], src[:n]...)
			convTaps(got, stacked, []float64{1, k}, n)
			checkBits(t, "convTaps taps=2", n, k, got, want)
		}

		bv := make([]float64, n+1)
		for i := range bv {
			bv[i] = (rng.Float64() - 0.5) * 77.3
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = src[i] * bv[i]
		}
		got := make([]float64, n)
		mulVec(got, src, bv)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("mulVec n=%d i=%d: got %x want %x", n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	testConvTaps(t)
}

// testConvTaps checks the fused multi-tap kernel against the pass-based
// scale-then-axpy reference, which is itself pinned to the scalar loops
// above — covering every kernel length convValid uses (3..17), strided
// vertical-pass access, and dst lengths spanning all block widths.
func testConvTaps(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 69}
	for _, taps := range []int{1, 2, 3, 5, 9, 11, 17} {
		k := make([]float64, taps)
		for i := range k {
			k[i] = (rng.Float64() - 0.5) * 2.3
		}
		for _, stride := range []int{1, 7, 33} {
			for _, n := range lengths {
				src := make([]float64, n+(taps-1)*stride+2)
				for i := range src {
					src[i] = (rng.Float64() - 0.5) * 513.7
				}
				want := make([]float64, n)
				refScale(want, src, k[0])
				for i := 1; i < taps; i++ {
					refAxpy(want, src[i*stride:], k[i])
				}
				got := make([]float64, n)
				convTaps(got, src, k, stride)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("convTaps taps=%d stride=%d n=%d i=%d: got %x want %x",
							taps, stride, n, i,
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

func checkBits(t *testing.T, what string, n int, k float64, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s n=%d k=%g i=%d: got %x want %x", what, n, k, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

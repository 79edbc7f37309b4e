//go:build amd64

package qoe

import "math"

// The scorer's logarithms go through log10 and log10Vec, so one form of
// log10 serves every architecture. On amd64 math.Log10 is the assembly
// math.archLog times 1/Ln10; log10AVX2 (log10_amd64.s) computes the same
// operations four lanes at a time, so its bits equal math.Log10's for
// every float64. Other architectures run a Go copy of archLog
// (log10_generic.go).

// log10 returns the decimal logarithm of x with amd64's math.Log10 bits.
func log10(x float64) float64 { return math.Log10(x) }

// log10Vec writes dst[i] = log10(src[i]) for every i in dst. dst may
// alias src; len(src) must be >= len(dst).
func log10Vec(dst, src []float64) {
	src = src[:len(dst)]
	n := 0
	if useAVX2 {
		n = len(dst) &^ 3
		log10AVX2(dst[:n], src[:n])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = math.Log10(src[i])
	}
}

//go:noescape
func log10AVX2(dst, src []float64)

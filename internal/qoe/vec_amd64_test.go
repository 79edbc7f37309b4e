//go:build amd64

package qoe

import "testing"

// TestVecKernelsPortablePath forces the portable kernels
// (vec_generic.go) on an AVX2 machine so both amd64 paths are exercised
// by the same bit-identity sweep.
func TestVecKernelsPortablePath(t *testing.T) {
	if !useAVX2 {
		t.Skip("already on the portable path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	TestVecKernelsBitIdentical(t)
}

// TestLog10ScalarPath forces log10Vec onto math.Log10 alone, the path
// of an amd64 machine without AVX2.
func TestLog10ScalarPath(t *testing.T) {
	if !useAVX2 {
		t.Skip("already on the scalar path")
	}
	useAVX2 = false
	defer func() { useAVX2 = true }()
	TestLog10MatchesArchLog(t)
}

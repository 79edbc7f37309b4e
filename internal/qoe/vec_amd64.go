//go:build amd64

package qoe

// The separable-convolution inner loops are elementwise: every output
// element is computed independently as round(src*k) followed by one
// rounded add. That makes the AVX2 kernels (vec_amd64.s) bit-identical
// to the portable forms (vec_generic.go) as long as multiply and add
// stay separate instructions — so they use VMULPD/VADDPD, never FMA,
// whose single rounding would change low-order bits.
//
// useAVX2 gates the 4-wide kernels. Without AVX2 the portable forms
// run, the same code every other architecture runs; tests clear it to
// run them on amd64 too.
var useAVX2 = cpuSupportsAVX2()

// mulVec writes dst[i] = a[i] * b[i] for every i in dst.
// len(a) and len(b) must be >= len(dst).
func mulVec(dst, a, b []float64) {
	if useAVX2 {
		mulVecAVX2(dst, a, b)
		return
	}
	mulVecGeneric(dst, a, b)
}

// convTaps writes dst[j] = sum over i of src[j+i*stride]*k[i], with the
// products added in ascending tap order — the exact rounding sequence of
// convTapsGeneric, except the accumulator lives in a register instead
// of round-tripping through dst once per tap.
// len(src) must be >= len(dst)+(len(k)-1)*stride.
func convTaps(dst, src, k []float64, stride int) {
	if len(k) == 0 {
		return
	}
	if useAVX2 {
		convTapsAVX2(dst, src, k, stride)
		return
	}
	convTapsGeneric(dst, src, k, stride)
}

//go:noescape
func convTapsAVX2(dst, src, k []float64, stride int)

//go:noescape
func mulVecAVX2(dst, a, b []float64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuSupportsAVX2 checks CPU support for AVX2 and, via XGETBV, that the
// OS saves/restores the YMM state.
func cpuSupportsAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if lo, _ := xgetbv(); lo&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

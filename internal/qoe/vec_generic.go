package qoe

// Portable forms of the convolution inner loops: the kernels on
// architectures without an assembly form and on amd64 without AVX2,
// and the reference the AVX2 kernels (vec_amd64.s) are tested against.
// The AVX2 kernels compute exactly these recurrences with separate
// multiply and add roundings, so every architecture produces identical
// bytes. Go may fuse x*y + z into one multiply-add (arm64 does); an
// explicit float64 conversion of a product forces its rounding, which
// rules the fusion out.

// scaleVec writes dst[i] = src[i] * k for every i in dst.
// len(src) must be >= len(dst).
func scaleVec(dst, src []float64, k float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = src[i] * k
	}
}

// axpyVec accumulates dst[i] += src[i] * k for every i in dst.
// len(src) must be >= len(dst).
func axpyVec(dst, src []float64, k float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += float64(src[i] * k)
	}
}

// convTapsGeneric writes dst[j] = sum over i of src[j+i*stride]*k[i],
// with the products added in ascending tap order — exactly scaleVec for
// tap 0 followed by axpyVec for the remaining taps.
// len(src) must be >= len(dst)+(len(k)-1)*stride.
func convTapsGeneric(dst, src, k []float64, stride int) {
	if len(k) == 0 {
		return
	}
	scaleVec(dst, src, k[0])
	for i := 1; i < len(k); i++ {
		axpyVec(dst, src[i*stride:], k[i])
	}
}

// mulVecGeneric writes dst[i] = a[i] * b[i] for every i in dst.
// len(a) and len(b) must be >= len(dst).
func mulVecGeneric(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

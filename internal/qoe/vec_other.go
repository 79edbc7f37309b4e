//go:build !amd64

package qoe

// mulVec writes dst[i] = a[i] * b[i] for every i in dst.
// len(a) and len(b) must be >= len(dst).
func mulVec(dst, a, b []float64) { mulVecGeneric(dst, a, b) }

// convTaps writes dst[j] = sum over i of src[j+i*stride]*k[i], with the
// products added in ascending tap order.
// len(src) must be >= len(dst)+(len(k)-1)*stride.
func convTaps(dst, src, k []float64, stride int) { convTapsGeneric(dst, src, k, stride) }

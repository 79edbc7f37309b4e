//go:build !amd64

package qoe

import "math"

// log10 returns the decimal logarithm of x with amd64's math.Log10 bits:
// archLog(x) times 1/Ln10, as math.Log10 computes it there.
func log10(x float64) float64 { return archLog(x) * (1 / math.Ln10) }

// log10Vec writes dst[i] = log10(src[i]) for every i in dst. dst may
// alias src; len(src) must be >= len(dst).
func log10Vec(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] = log10(src[i])
	}
}

// archLog is amd64's math.archLog (math/log_amd64.s) in Go. The pure-Go
// math.log that other architectures run differs from it in two places:
// it normalizes a subnormal before its frexp, and it doubles f1 only
// when f1 < Sqrt2/2, where archLog's not-less-than compare also doubles
// f1 == Sqrt2/2 (x = 2^32*Sqrt2/2 gets a different last bit). This copy
// does archLog's bit-level frexp and takes its <= branch, and rounds
// every product with float64(...), so arm64 cannot fuse a multiply-add.
func archLog(x float64) float64 {
	const (
		hSqrt2 = 7.07106781186547524401e-01 // 0x3FE6A09E667F3BCD
		ln2Hi  = 6.93147180369123816490e-01 // 0x3FE62E42FEE00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3DEA39EF35793C76
		l1     = 6.666666666666735130e-01   // 0x3FE5555555555593
		l2     = 3.999999999940941908e-01   // 0x3FD999999997FA04
		l3     = 2.857142874366239149e-01   // 0x3FD2492494229359
		l4     = 2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
		l5     = 1.818357216161805012e-01   // 0x3FC7466496CB03DE
		l6     = 1.531383769920937332e-01   // 0x3FC39A09D078C69F
		l7     = 1.479819860511658591e-01   // 0x3FC2F112DF3E5244
	)
	bits := math.Float64bits(x)
	switch {
	case bits&^(1<<63) == 0: // ±0
		return math.Inf(-1)
	case int64(bits) < 0: // negative, -Inf and NaNs with the sign bit set
		return math.Float64frombits(0x7FF8000000000001)
	case bits >= 0x7FF0000000000000: // +Inf, NaN
		return x
	}
	f1 := math.Float64frombits(bits&(1<<52-1) | 0x3FE0000000000000)
	k := float64(int(bits>>52) - 0x3FE)
	if f1 <= hSqrt2 {
		k--
		f1 = float64(f1 * 2)
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

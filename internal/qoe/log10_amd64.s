//go:build amd64

#include "textflag.h"

// log10AVX2 is math.archLog (math/log_amd64.s) four lanes wide, times
// 1/Ln10, which is how math.Log10 is built on amd64. Every step keeps
// archLog's operation order and rounds each multiply, add, subtract and
// divide on its own (no FMA), so each lane gets the bits math.Log10
// returns for that input:
//   - the frexp is bit arithmetic, and, as in archLog, a subnormal is
//     not normalized first;
//   - the exponent becomes a float64 exactly: OR it into the bits of
//     2^52, then subtract 2^52+1022;
//   - the reduction keeps archLog's not-less-than compare (CMPSD ..., 5),
//     so it doubles f1 when f1 <= Sqrt2/2, where the pure-Go math.log
//     uses f1 < Sqrt2/2;
//   - ±0, negative, +Inf and NaN lanes are blended in before the final
//     multiply, as archLog returns them: -Inf, NaN (0x7FF8000000000001)
//     and x itself.

// CONST4 fills one 32-byte row of log10c<> with four copies of v, so
// each constant is one aligned 256-bit memory operand.
#define CONST4(row, v) \
	DATA log10c<>+(row*32+0)(SB)/8, v; \
	DATA log10c<>+(row*32+8)(SB)/8, v; \
	DATA log10c<>+(row*32+16)(SB)/8, v; \
	DATA log10c<>+(row*32+24)(SB)/8, v

CONST4(0, $0x000FFFFFFFFFFFFF)  // mantissa mask
CONST4(1, $0x3FE0000000000000)  // 0.5: the exponent bits of f1, and hfsq's factor
CONST4(2, $0x4330000000000000)  // 2^52
CONST4(3, $0x43300000000003FE)  // 2^52 + 1022
CONST4(4, $0x3FE6A09E667F3BCD)  // Sqrt2/2
CONST4(5, $0x3FF0000000000000)  // 1
CONST4(6, $0x4000000000000000)  // 2
CONST4(7, $0x3FE5555555555593)  // L1
CONST4(8, $0x3FD999999997FA04)  // L2
CONST4(9, $0x3FD2492494229359)  // L3
CONST4(10, $0x3FCC71C51D8E78AF) // L4
CONST4(11, $0x3FC7466496CB03DE) // L5
CONST4(12, $0x3FC39A09D078C69F) // L6
CONST4(13, $0x3FC2F112DF3E5244) // L7
CONST4(14, $0x3FE62E42FEE00000) // Ln2Hi
CONST4(15, $0x3DEA39EF35793C76) // Ln2Lo
CONST4(16, $0x3FDBCB7B1526E50E) // 1/Ln10
CONST4(17, $0x7FFFFFFFFFFFFFFF) // all but the sign bit
CONST4(18, $0x7FEFFFFFFFFFFFFF) // largest finite float64
CONST4(19, $0x7FF8000000000001) // archLog's NaN
CONST4(20, $0xFFF0000000000000) // -Inf
GLOBL log10c<>(SB), RODATA|NOPTR, $672

#define C(row) log10c<>+(row*32)(SB)

// func log10AVX2(dst, src []float64)
// len(dst) must be a multiple of 4, and len(src) >= len(dst).
TEXT ·log10AVX2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	XORQ   AX, AX
	VPXOR  Y15, Y15, Y15

log10_avx2_loop:
	CMPQ    AX, CX
	JGE     log10_avx2_done
	VMOVUPD (SI)(AX*8), Y0 // x

	// f1, k := frexp(x)
	VANDPD   C(0), Y0, Y2
	VORPD    C(1), Y2, Y2  // f1
	VPSRLQ   $52, Y0, Y1
	VPOR     C(2), Y1, Y1
	VSUBPD   C(3), Y1, Y1  // k

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }
	VMOVUPD  C(4), Y3
	VCMPPD   $5, Y2, Y3, Y3 // not(Sqrt2/2 < f1): 0 or ^0
	VANDPD   C(5), Y3, Y3   // 0 or 1
	VSUBPD   Y3, Y1, Y1
	VADDPD   C(5), Y3, Y3   // 1 or 2
	VMULPD   Y3, Y2, Y2

	// f := f1 - 1
	VSUBPD C(5), Y2, Y2

	// s := f / (2 + f)
	VADDPD C(6), Y2, Y3
	VDIVPD Y3, Y2, Y3 // s

	// s2 := s * s; s4 := s2 * s2
	VMULPD Y3, Y3, Y4 // s2
	VMULPD Y4, Y4, Y5 // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD C(13), Y5, Y6
	VADDPD C(11), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD C(9), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD C(7), Y6, Y6
	VMULPD Y6, Y4, Y4 // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD C(12), Y5, Y6
	VADDPD C(10), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD C(8), Y6, Y6
	VMULPD Y6, Y5, Y5 // t2

	// R := t1 + t2
	VADDPD Y5, Y4, Y4

	// hfsq := 0.5 * f * f
	VMULPD C(1), Y2, Y6
	VMULPD Y2, Y6, Y6

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y6, Y4, Y4 // hfsq+R
	VMULPD Y4, Y3, Y3 // s*(hfsq+R)
	VMULPD C(15), Y1, Y4
	VADDPD Y4, Y3, Y3 // s*(hfsq+R) + k*Ln2Lo
	VSUBPD Y3, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VMULPD C(14), Y1, Y1
	VSUBPD Y6, Y1, Y1 // log(x)

	// Special lanes, in reverse of archLog's test order so the first
	// test wins: +Inf and NaN return x, a set sign bit NaN, ±0 -Inf.
	VPCMPGTQ  C(18), Y0, Y7 // x > largest finite, as int64
	VBLENDVPD Y7, Y0, Y1, Y1
	VBLENDVPD Y0, C(19), Y1, Y1
	VANDPD    C(17), Y0, Y7
	VPCMPEQQ  Y15, Y7, Y7 // x == ±0
	VBLENDVPD Y7, C(20), Y1, Y1

	VMULPD  C(16), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     log10_avx2_loop

log10_avx2_done:
	VZEROUPPER
	RET

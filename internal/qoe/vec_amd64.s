//go:build amd64

#include "textflag.h"

// Elementwise AVX2 kernels for the separable convolution. Multiply and
// add are always separate instructions (no FMA): each dst element sees
// round(src*k) then one rounded add, exactly as the portable Go forms
// (vec_generic.go) compute it, so results are bit-identical at any
// vector width.

// func convTapsAVX2(dst, src, k []float64, stride int)
//
// dst[j] = sum_i src[j+i*stride]*k[i], accumulated in ascending tap
// order in registers: per element the rounding sequence is identical to
// a scaleVec pass for tap 0 plus one axpyVec pass per later tap, but
// dst is written exactly once.
TEXT ·convTapsAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ k_base+48(FP), R8
	MOVQ k_len+56(FP), R12
	MOVQ stride+72(FP), R10
	SHLQ $3, R10
	XORQ AX, AX

ct_avx2_blk16:
	LEAQ         16(AX), DX
	CMPQ         DX, CX
	JGT          ct_avx2_blk4
	LEAQ         (SI)(AX*8), R11
	VBROADCASTSD (R8), Y0
	VMOVUPD      (R11), Y1
	VMOVUPD      32(R11), Y2
	VMOVUPD      64(R11), Y3
	VMOVUPD      96(R11), Y4
	VMULPD       Y0, Y1, Y1
	VMULPD       Y0, Y2, Y2
	VMULPD       Y0, Y3, Y3
	VMULPD       Y0, Y4, Y4
	MOVQ         $1, R9

ct_avx2_blk16_tap:
	CMPQ         R9, R12
	JGE          ct_avx2_blk16_store
	ADDQ         R10, R11
	VBROADCASTSD (R8)(R9*8), Y0
	VMOVUPD      (R11), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VMOVUPD      32(R11), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y2, Y2
	VMOVUPD      64(R11), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y3, Y3
	VMOVUPD      96(R11), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y4, Y4
	INCQ         R9
	JMP          ct_avx2_blk16_tap

ct_avx2_blk16_store:
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     ct_avx2_blk16

ct_avx2_blk4:
	LEAQ         4(AX), DX
	CMPQ         DX, CX
	JGT          ct_avx2_tail
	LEAQ         (SI)(AX*8), R11
	VBROADCASTSD (R8), Y0
	VMOVUPD      (R11), Y1
	VMULPD       Y0, Y1, Y1
	MOVQ         $1, R9

ct_avx2_blk4_tap:
	CMPQ         R9, R12
	JGE          ct_avx2_blk4_store
	ADDQ         R10, R11
	VBROADCASTSD (R8)(R9*8), Y0
	VMOVUPD      (R11), Y5
	VMULPD       Y0, Y5, Y5
	VADDPD       Y5, Y1, Y1
	INCQ         R9
	JMP          ct_avx2_blk4_tap

ct_avx2_blk4_store:
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     ct_avx2_blk4

ct_avx2_tail:
	CMPQ   AX, CX
	JGE    ct_avx2_done
	LEAQ   (SI)(AX*8), R11
	VMOVSD (R8), X0
	VMOVSD (R11), X1
	VMULSD X0, X1, X1
	MOVQ   $1, R9

ct_avx2_tail_tap:
	CMPQ   R9, R12
	JGE    ct_avx2_tail_store
	ADDQ   R10, R11
	VMOVSD (R8)(R9*8), X0
	VMOVSD (R11), X5
	VMULSD X0, X5, X5
	VADDSD X5, X1, X1
	INCQ   R9
	JMP    ct_avx2_tail_tap

ct_avx2_tail_store:
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    ct_avx2_tail

ct_avx2_done:
	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL  eaxIn+0(FP), AX
	MOVL  ecxIn+4(FP), CX
	CPUID
	MOVL  AX, eax+8(FP)
	MOVL  BX, ebx+12(FP)
	MOVL  CX, ecx+16(FP)
	MOVL  DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL    CX, CX
	XGETBV
	MOVL    AX, eax+0(FP)
	MOVL    DX, edx+4(FP)
	RET

// func mulVecAVX2(dst, a, b []float64)
TEXT ·mulVecAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	XORQ AX, AX

mul_avx2_blk16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JGT     mul_avx2_blk4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMOVUPD 64(SI)(AX*8), Y3
	VMOVUPD 96(SI)(AX*8), Y4
	VMULPD  (BX)(AX*8), Y1, Y1
	VMULPD  32(BX)(AX*8), Y2, Y2
	VMULPD  64(BX)(AX*8), Y3, Y3
	VMULPD  96(BX)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     mul_avx2_blk16

mul_avx2_blk4:
	LEAQ    4(AX), DX
	CMPQ    DX, CX
	JGT     mul_avx2_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (BX)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	MOVQ    DX, AX
	JMP     mul_avx2_blk4

mul_avx2_tail:
	CMPQ   AX, CX
	JGE    mul_avx2_done
	VMOVSD (SI)(AX*8), X1
	VMULSD (BX)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    mul_avx2_tail

mul_avx2_done:
	VZEROUPPER
	RET


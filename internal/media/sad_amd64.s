//go:build amd64

#include "textflag.h"

// func sadSSE2(a, b []uint8) uint64
//
// Sums |a[i]-b[i]| over i < len(a); len(b) >= len(a) is checked by the
// Go caller. PSADBW sums each 8-byte half of a 16-byte block into a
// 64-bit lane (at most 8*255), and PADDQ accumulates the lanes in two
// registers for the 32-byte loop. An 8-byte step and a byte loop take
// the tail.
TEXT ·sadSSE2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	PXOR X0, X0
	PXOR X1, X1
	XORQ AX, AX
	XORQ BX, BX

sad_blk32:
	LEAQ   32(AX), DX
	CMPQ   DX, CX
	JGT    sad_blk16
	MOVOU  (SI)(AX*1), X2
	MOVOU  (DI)(AX*1), X3
	MOVOU  16(SI)(AX*1), X4
	MOVOU  16(DI)(AX*1), X5
	PSADBW X3, X2
	PSADBW X5, X4
	PADDQ  X2, X0
	PADDQ  X4, X1
	MOVQ   DX, AX
	JMP    sad_blk32

sad_blk16:
	LEAQ   16(AX), DX
	CMPQ   DX, CX
	JGT    sad_blk8
	MOVOU  (SI)(AX*1), X2
	MOVOU  (DI)(AX*1), X3
	PSADBW X3, X2
	PADDQ  X2, X0
	MOVQ   DX, AX

sad_blk8:
	LEAQ   8(AX), DX
	CMPQ   DX, CX
	JGT    sad_tail
	MOVQ   (SI)(AX*1), X2
	MOVQ   (DI)(AX*1), X3
	PSADBW X3, X2
	PADDQ  X2, X1
	MOVQ   DX, AX

sad_tail:
	CMPQ    AX, CX
	JGE     sad_done
	MOVBQZX (SI)(AX*1), R8
	MOVBQZX (DI)(AX*1), R9
	SUBQ    R9, R8
	MOVQ    R8, R9
	SARQ    $63, R9
	XORQ    R9, R8
	SUBQ    R9, R8
	ADDQ    R8, BX
	INCQ    AX
	JMP     sad_tail

sad_done:
	PADDQ  X1, X0
	MOVQ   X0, R8
	PSRLDQ $8, X0
	MOVQ   X0, R9
	ADDQ   R8, BX
	ADDQ   R9, BX
	MOVQ   BX, ret+48(FP)
	RET

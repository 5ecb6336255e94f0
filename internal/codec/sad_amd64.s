#include "textflag.h"

// The motion search's SAD on SSE2, the amd64 baseline. PSADBW sums the
// absolute differences of 16 byte pairs into two 64-bit lanes (each at most
// 8·255); PADDQ accumulates them, so no sum can wrap. sadRows in encode.go
// establishes every bound: this loop trusts n and h.

// func sad16(cur, ref *uint8, cstride, rstride, n, h int) int
TEXT ·sad16(SB), NOSPLIT, $0-56
	MOVQ cur+0(FP), SI
	MOVQ ref+8(FP), DI
	MOVQ cstride+16(FP), R8
	MOVQ rstride+24(FP), R9
	MOVQ n+32(FP), DX
	MOVQ h+40(FP), CX
	PXOR X0, X0
	TESTQ DX, DX
	JLE sadDone
	TESTQ CX, CX
	JLE sadDone

sadRow:
	XORQ AX, AX

sadCol:
	MOVOU (SI)(AX*1), X1
	MOVOU (DI)(AX*1), X2
	PSADBW X2, X1
	PADDQ X1, X0
	ADDQ $16, AX
	CMPQ AX, DX
	JLT sadCol

	ADDQ R8, SI
	ADDQ R9, DI
	DECQ CX
	JNZ sadRow

sadDone:
	PSHUFD $0x4e, X0, X1
	PADDQ X1, X0
	MOVQ X0, AX
	MOVQ AX, ret+48(FP)
	RET

#include "textflag.h"

// The ×2 bilinear's bulk loops on SSE2, the amd64 baseline. Each 16-byte
// lane group computes (far + 3·near + 2)>>2 as avgUp(avgDown(far, near),
// near): PAVGB is avgUp, and avgDown is PAVGB minus the low bit of
// far⊕near (bilinear2x.go's blend8 carries the exactness argument). The
// Go wrappers in bilinear2x.go establish every bound: these loops trust n.

// func expand16(dst, src *uint8, n int)
//
// For k = 0, 16, …, n−16: reads src[k−1 .. k+16] and writes the 32 bytes
// dst[2k .. 2k+32), even outputs blending the left neighbour and odd ones
// the right, interleaved.
TEXT ·expand16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ $0x0101010101010101, AX
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7
	TESTQ CX, CX
	JLE expandDone

expandLoop:
	MOVOU (SI), X1
	MOVOU -1(SI), X0
	MOVOU 1(SI), X3

	// even = blend(left, centre)
	MOVO X0, X2
	PXOR X1, X2
	PAND X7, X2
	PAVGB X1, X0
	PSUBB X2, X0
	PAVGB X1, X0

	// odd = blend(right, centre)
	MOVO X3, X4
	PXOR X1, X4
	PAND X7, X4
	PAVGB X1, X3
	PSUBB X4, X3
	PAVGB X1, X3

	MOVO X0, X5
	PUNPCKLBW X3, X0
	PUNPCKHBW X3, X5
	MOVOU X0, (DI)
	MOVOU X5, 16(DI)

	ADDQ $16, SI
	ADDQ $32, DI
	SUBQ $16, CX
	JG expandLoop

expandDone:
	RET

// func blend16(dst, far, near *uint8, n int)
//
// dst[k] = (far[k] + 3·near[k] + 2)>>2 for k < n.
TEXT ·blend16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ far+8(FP), SI
	MOVQ near+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ $0x0101010101010101, AX
	MOVQ AX, X7
	PUNPCKLQDQ X7, X7
	TESTQ CX, CX
	JLE blendDone

blendLoop:
	MOVOU (SI), X0
	MOVOU (DX), X1
	MOVO X0, X2
	PXOR X1, X2
	PAND X7, X2
	PAVGB X1, X0
	PSUBB X2, X0
	PAVGB X1, X0
	MOVOU X0, (DI)

	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, DI
	SUBQ $16, CX
	JG blendLoop

blendDone:
	RET

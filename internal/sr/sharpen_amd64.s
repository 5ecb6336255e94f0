#include "textflag.h"

// The sharpen on SSE2, sixteen pixels a loop (see sharpen.go for the layout
// of a row's reductions and the integer identity). Sums ride in 16-bit
// lanes, eight to a register; extrema, the clamp and the output in byte
// lanes, sixteen to a register. Every step is reduceGo's or sharpenGo's
// integer operation, so the bytes are theirs.

// func reduce16(red, pad *uint8, n int)
TEXT ·reduce16(SB), NOSPLIT, $0-24
	MOVQ red+0(FP), DI
	MOVQ pad+8(FP), SI
	MOVQ n+16(FP), CX
	PXOR X15, X15

reduceLoop:
	// The left, centre and right neighbours of sixteen pixels.
	MOVOU 0(SI), X0
	MOVOU 1(SI), X1
	MOVOU 2(SI), X2

	MOVO    X0, X3
	PMINUB  X1, X3
	PMINUB  X2, X3
	MOVOU   X3, 32(DI)
	MOVO    X0, X4
	PMAXUB  X1, X4
	PMAXUB  X2, X4
	MOVOU   X4, 48(DI)

	// l + 2m + r, pixels 0 … 7 and 8 … 15.
	MOVO      X0, X3
	PUNPCKLBW X15, X3
	PUNPCKHBW X15, X0
	MOVO      X1, X4
	PUNPCKLBW X15, X4
	PUNPCKHBW X15, X1
	MOVO      X2, X5
	PUNPCKLBW X15, X5
	PUNPCKHBW X15, X2
	PADDW     X4, X4
	PADDW     X4, X3
	PADDW     X5, X3
	PADDW     X1, X1
	PADDW     X1, X0
	PADDW     X2, X0
	MOVOU     X3, 0(DI)
	MOVOU     X0, 16(DI)

	ADDQ $16, SI
	ADDQ $64, DI
	SUBQ $16, CX
	JNZ  reduceLoop
	RET

// func sharpen16(dst, src, a, c, b *uint8, n int)
TEXT ·sharpen16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ a+16(FP), R8
	MOVQ c+24(FP), R9
	MOVQ b+32(FP), R10
	MOVQ n+40(FP), CX
	PXOR X15, X15
	MOVQ $0x0004000400040004, AX // the rounding 4 in every word
	MOVQ AX, X14
	PUNPCKLQDQ X14, X14

sharpenLoop:
	// lo and hi: the extrema of the three rows' extrema.
	MOVOU  32(R8), X0
	MOVOU  32(R9), X1
	PMINUB X1, X0
	MOVOU  32(R10), X1
	PMINUB X1, X0
	MOVOU  48(R8), X1
	MOVOU  48(R9), X2
	PMAXUB X2, X1
	MOVOU  48(R10), X2
	PMAXUB X2, X1

	// blur = a + 2c + b, pixels 0 … 7 in X2 and 8 … 15 in X3.
	MOVOU 0(R9), X2
	PADDW X2, X2
	MOVOU 0(R8), X4
	PADDW X4, X2
	MOVOU 0(R10), X4
	PADDW X4, X2
	MOVOU 16(R9), X3
	PADDW X3, X3
	MOVOU 16(R8), X4
	PADDW X4, X3
	MOVOU 16(R10), X4
	PADDW X4, X3

	// (24v − blur + 4) >> 3 in signed words.
	MOVOU     0(SI), X4
	MOVO      X4, X5
	PUNPCKLBW X15, X4
	PUNPCKHBW X15, X5
	PSLLW     $3, X4
	MOVO      X4, X6
	PADDW     X4, X4
	PADDW     X6, X4
	PSLLW     $3, X5
	MOVO      X5, X6
	PADDW     X5, X5
	PADDW     X6, X5
	PADDW     X14, X4
	PSUBW     X2, X4
	PSRAW     $3, X4
	PADDW     X14, X5
	PSUBW     X3, X5
	PSRAW     $3, X5

	// Saturate to bytes, then clamp to [lo, hi]: lo and hi are bytes, so
	// the saturation changes no clamped value.
	PACKUSWB X5, X4
	PMAXUB   X0, X4
	PMINUB   X1, X4
	MOVOU    X4, 0(DI)

	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $64, R8
	ADDQ $64, R9
	ADDQ $64, R10
	SUBQ $16, CX
	JNZ  sharpenLoop
	RET

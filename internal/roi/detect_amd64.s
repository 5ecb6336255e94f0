#include "textflag.h"

// The detector's passes on SSE2, the amd64 baseline. Every pixel a loop
// evaluates gets the Go loops' operations in detect_fast.go: CVTSS2SD or
// CVTPS2PD widens the depth sample exactly, MAXSS/MAXPS against 0 and
// MINSS/MINPS against 1 — the constant first, so a NaN or a −0 sample
// passes through as Go's clamp leaves it — and SUBSD/SUBPD from 1 give its
// nearness. A run of samples inside the current class's band (zBands) skips
// the class expression: the band holds exactly the samples the expression
// puts in that class. The order-dependent sums stay in the Go loops' order:
// a layer's sum is one register taking ADDSD in raster order, and a row's
// running sum is one lane taking ADDPD column by column. The Go wrappers
// establish every bound: these loops trust their counts.

// INBAND sets AX to the MOVMSKPS of lo ≤ z ≤ hi over the four samples in
// Z, for the band X14 = lo, X15 = hi (all lanes); T and U are scratch.
#define INBAND(Z, T, U) \
	MOVAPS X14, T; \
	CMPPS Z, T, $2; \
	MOVAPS Z, U; \
	CMPPS X15, U, $2; \
	ANDPS U, T; \
	MOVMSKPS T, AX

// BAND loads the band at (P) — two float32, lo then hi — into X14 and X15,
// broadcast.
#define BAND(P) \
	MOVSD P, X15; \
	MOVAPS X15, X14; \
	SHUFPS $0x00, X14, X14; \
	SHUFPS $0x55, X15, X15

// NEAR1 is the nearness of the sample in Z's low lane, left in V's low
// lane. X12 = 0, X11 = 1.0 (float32) and X13 = 1.0 (float64); T is scratch.
#define NEAR1(Z, V, T) \
	MOVAPS X12, T; \
	MAXSS Z, T; \
	MOVAPS X11, V; \
	MINSS T, V; \
	CVTSS2SD V, V; \
	MOVAPD X13, T; \
	SUBSD V, T; \
	MOVAPD T, V

// EXTREMES folds the run's least (X10) and greatest (X9) sample, four lanes
// each, into slot R11: most[R11] = max(most, nearness(least sample)),
// least[R11] = min(least, nearness(greatest sample)). X2 … X4 are scratch.
#define EXTREMES \
	MOVHLPS X10, X2; \
	MINPS X10, X2; \
	PSHUFD $1, X2, X3; \
	MINSS X3, X2; \
	NEAR1(X2, X3, X4); \
	MOVSD (R10)(R11*8), X2; \
	MAXSD X3, X2; \
	MOVSD X2, (R10)(R11*8); \
	MOVHLPS X9, X2; \
	MAXPS X9, X2; \
	PSHUFD $1, X2, X3; \
	MAXSS X3, X2; \
	NEAR1(X2, X3, X4); \
	MOVSD (R9)(R11*8), X2; \
	MINSD X3, X2; \
	MOVSD X2, (R9)(R11*8)

// SPIX takes the sample in X0's low lane, of slot AX, into the run: a
// sample of another slot first closes the run (if it holds any) and opens
// one for its slot. Then both X0 and the slots in X1 shift down a lane.
#define SPIX(same, fresh) \
	MOVQ X1, AX; \
	MOVL AX, AX; \
	CMPQ AX, R11; \
	JEQ same; \
	TESTQ R12, R12; \
	JZ fresh; \
	ADDL R12, (R8)(R11*4); \
	EXTREMES; \
fresh: \
	MOVQ AX, R11; \
	BAND((R13)(R11*8)); \
	XORQ R12, R12; \
	MOVAPS X6, X10; \
	MOVAPS X5, X9; \
same: \
	INCQ R12; \
	MINSS X0, X10; \
	MAXSS X0, X9; \
	PSRLDQ $4, X0; \
	PSRLDQ $4, X1

// SQUAD takes the four samples in X0 one at a time: their slots by the
// expression (the Go loop's, two lanes at a time), then SPIX.
#define SQUAD(s0, f0, s1, f1, s2, f2, s3, f3) \
	MOVAPS X12, X2; \
	MAXPS X0, X2; \
	MOVAPS X11, X3; \
	MINPS X2, X3; \
	CVTPS2PD X3, X2; \
	MOVHLPS X3, X3; \
	CVTPS2PD X3, X3; \
	MOVAPD X13, X4; \
	SUBPD X2, X4; \
	MULPD X8, X4; \
	MAXPD X12, X4; \
	CVTTPD2PL X4, X1; \
	MOVAPD X13, X4; \
	SUBPD X3, X4; \
	MULPD X8, X4; \
	MAXPD X12, X4; \
	CVTTPD2PL X4, X4; \
	PUNPCKLQDQ X4, X1; \
	SPIX(s0, f0); \
	SPIX(s1, f1); \
	SPIX(s2, f2); \
	SPIX(s3, f3)

// func scanOcts(z *float32, n int, cnt *uint32, least, most *float64, scale float64, bands *float32)
//
// Eight samples a loop. Depth maps are smooth, so most eights lie in the
// band of one slot: the loop then only counts them and folds them into the
// run's least and greatest sample (four lanes each; nearness never
// increases with z, so the run's extremes of nearness are those of the
// greatest and least sample). Eights off the band take the expression a
// sample at a time. A count or an extreme does not depend on the order it
// was taken in.
TEXT ·scanOcts(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ cnt+16(FP), R8
	MOVQ least+24(FP), R9
	MOVQ most+32(FP), R10
	MOVSD scale+40(FP), X8
	UNPCKLPD X8, X8
	MOVQ bands+48(FP), R13
	XORPS X12, X12
	MOVQ $0x3FF0000000000000, AX
	MOVQ AX, X13
	UNPCKLPD X13, X13
	MOVL $0x3F800000, AX
	MOVQ AX, X11
	PSHUFD $0, X11, X11
	MOVL $0x7F800000, AX
	MOVQ AX, X6
	PSHUFD $0, X6, X6
	MOVL $0xFF800000, AX
	MOVQ AX, X5
	PSHUFD $0, X5, X5

	// The run: slot 0, empty.
	XORQ R11, R11
	XORQ R12, R12
	BAND((R13))
	MOVAPS X6, X10
	MOVAPS X5, X9

scanLoop:
	MOVUPS (SI), X0
	MOVUPS 16(SI), X7
	MOVAPS X0, X2
	MINPS X7, X2
	MOVAPS X7, X3
	MAXPS X0, X3
	MOVAPS X14, X4
	CMPPS X2, X4, $2
	CMPPS X15, X3, $2
	ANDPS X3, X4
	MOVMSKPS X4, AX
	CMPL AX, $15
	JNE scanSlow
	ADDQ $8, R12
	MINPS X2, X10
	MAXPS X0, X9
	MAXPS X7, X9

scanNext:
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ scanLoop
	TESTQ R12, R12
	JZ scanDone
	ADDL R12, (R8)(R11*4)
	EXTREMES

scanDone:
	RET

scanSlow:
	SQUAD(s00, f00, s01, f01, s02, f02, s03, f03)
	MOVAPS X7, X0
	SQUAD(s10, f10, s11, f11, s12, f12, s13, f13)
	JMP scanNext

// SWITCH makes layer R the one whose sum X10 holds: the sum held so far
// goes back to sums[R11] and sums[R] comes in.
#define SWITCH(R) \
	MOVSD X10, (R9)(R11*8); \
	MOVQ R, R11; \
	MOVSD (R9)(R11*8), X10

// WPIX weighs the sample in X0's low lane by the expression, as weighGo
// does: its nearness v; the foreground test (thr ≤ v and 0 < v, both false
// for NaN); the layer ⌊(v − lo) / span · layers⌋, where MAXSD against 0 and
// MINSD against layers − 1 before the truncation are weighGo's clamp, v
// lying in [lo, hi]; the weighted value v + bias from (R13). The cell and
// layer go to offsets C and L; BX is left holding the layer, −1 for the
// background. AX points at the weighConsts.
#define WPIX(C, L, bg, same, done) \
	NEAR1(X0, X1, X2); \
	MOVSD 0(AX), X2; \
	CMPSD X1, X2, $2; \
	MOVAPD X12, X3; \
	CMPSD X1, X3, $1; \
	ANDPD X3, X2; \
	MOVQ X2, BX; \
	TESTQ BX, BX; \
	JZ bg; \
	MOVAPD X1, X2; \
	SUBSD 8(AX), X2; \
	DIVSD 16(AX), X2; \
	MULSD 24(AX), X2; \
	MAXSD X12, X2; \
	MINSD 32(AX), X2; \
	CVTTSD2SQ X2, BX; \
	MOVSD (R13), X2; \
	ADDSD X1, X2; \
	MOVSD X2, C(DI); \
	MOVW BX, L(R8); \
	CMPQ BX, R11; \
	JEQ same; \
	SWITCH(BX); \
same: \
	ADDSD X2, X10; \
	JMP done; \
bg: \
	MOVQ $0, C(DI); \
	MOVW $-1, L(R8); \
	MOVQ $-1, BX; \
done: \
	ADDQ R10, R13; \
	PSRLDQ $4, X0

// func weighQuads(z *float32, bias, cells *float64, layer *int16, sums *float64, k *weighConsts, quads, step int, bands *float32)
//
// Four pixels a loop. A quad inside the band of the current class (R12: a
// layer, or −1 for the background) needs no expression: a background quad
// stores +0 cells and layer −1; a layer's quad stores v + bias and the
// layer and adds the four values to the layer's sum, which X10 holds
// whenever R12 is a layer. Any other quad is weighed a pixel at a time by
// WPIX, and its last pixel's class becomes the current one.
TEXT ·weighQuads(SB), NOSPLIT, $0-72
	MOVQ z+0(FP), SI
	MOVQ bias+8(FP), DX
	MOVQ cells+16(FP), DI
	MOVQ layer+24(FP), R8
	MOVQ sums+32(FP), R9
	MOVQ quads+48(FP), CX
	MOVQ step+56(FP), R10
	XORPS X12, X12
	MOVQ $0x3FF0000000000000, AX
	MOVQ AX, X13
	UNPCKLPD X13, X13
	MOVL $0x3F800000, AX
	MOVQ AX, X11
	PSHUFD $0, X11, X11

	// Layer 0's sum is held; no class is current (an empty band).
	XORQ R11, R11
	MOVSD (R9), X10
	MOVQ $-1, R12
	MOVL $0x7F800000, AX
	MOVQ AX, X14
	PSHUFD $0, X14, X14
	MOVL $0xFF800000, AX
	MOVQ AX, X15
	PSHUFD $0, X15, X15

weighLoop:
	MOVUPS (SI), X0
	INBAND(X0, X1, X2)
	CMPL AX, $15
	JNE weighSlow
	MOVQ X6, (R8)
	TESTQ R12, R12
	JS weighBackground
	MOVAPS X12, X1
	MAXPS X0, X1
	MOVAPS X11, X0
	MINPS X1, X0
	CVTPS2PD X0, X1
	MOVHLPS X0, X0
	CVTPS2PD X0, X2
	MOVAPD X13, X3
	SUBPD X1, X3
	MOVAPD X13, X4
	SUBPD X2, X4
	MOVUPD (DX), X1
	MOVUPD (DX)(R10*2), X2
	TESTQ R10, R10
	JNS weighForward
	SHUFPD $1, X1, X1
	SHUFPD $1, X2, X2

weighForward:
	ADDPD X1, X3
	ADDPD X2, X4
	MOVUPD X3, (DI)
	MOVUPD X4, 16(DI)
	ADDSD X3, X10
	UNPCKHPD X3, X3
	ADDSD X3, X10
	ADDSD X4, X10
	UNPCKHPD X4, X4
	ADDSD X4, X10

weighNext:
	ADDQ $16, SI
	LEAQ (DX)(R10*4), DX
	ADDQ $32, DI
	ADDQ $8, R8
	DECQ CX
	JNZ weighLoop
	MOVSD X10, (R9)(R11*8)
	RET

weighBackground:
	MOVUPS X12, (DI)
	MOVUPS X12, 16(DI)
	JMP weighNext

weighSlow:
	MOVQ k+40(FP), AX
	MOVQ DX, R13
	TESTQ R10, R10
	JNS weighSlowForward
	ADDQ $8, R13

weighSlowForward:
	WPIX(0, 0, b0, s0, d0)
	WPIX(8, 2, b1, s1, d1)
	WPIX(16, 4, b2, s2, d2)
	WPIX(24, 6, b3, s3, d3)
	MOVQ BX, R12
	MOVQ bands+64(FP), AX
	BAND(8(AX)(BX*8))
	MOVQ BX, X6
	PSHUFLW $0, X6, X6
	TESTQ BX, BX
	JS weighNext
	CMPQ BX, R11
	JEQ weighNext
	SWITCH(BX)
	JMP weighNext

// MASKS builds, from the int16 layer pairs in X0 (l0[x], l1[x], l0[x+1],
// l1[x+1] after the interleave), the float64 lane masks of layer sel
// (X15's words): X0 = (row 0, row 1) at column x, X1 the same at x+1.
#define MASKS \
	PCMPEQW X15, X0; \
	PUNPCKLWL X0, X0; \
	MOVO X0, X1; \
	PUNPCKLLQ X0, X0; \
	PUNPCKHLQ X1, X1

// func sumPairs(above, r0, r1 *float64, l0, l1 *int16, sel, n int)
//
// Two rows at once: X10 holds row 0's running sum in its low lane and row
// 1's in its high lane, and takes each column's two masked cells in one
// ADDPD. Row 0's sums are above plus its lane, row 1's are row 0's sums
// plus its lane — newSAT's additions, in its order.
TEXT ·sumPairs(SB), NOSPLIT, $0-56
	MOVQ above+0(FP), SI
	MOVQ r0+8(FP), DI
	MOVQ r1+16(FP), DX
	MOVQ l0+24(FP), R8
	MOVQ l1+32(FP), R9
	MOVQ sel+40(FP), AX
	MOVQ n+48(FP), CX
	MOVQ AX, X15
	PSHUFLW $0, X15, X15
	XORPD X10, X10
	CMPQ CX, $2
	JLT sumLast

sumLoop:
	MOVSS (R8), X0
	MOVSS (R9), X1
	PUNPCKLWL X1, X0
	MASKS
	MOVUPD (DI), X2
	MOVUPD (DX), X3
	MOVAPD X2, X4
	UNPCKLPD X3, X2
	UNPCKHPD X3, X4
	ANDPD X0, X2
	ANDPD X1, X4
	ADDPD X2, X10
	MOVAPD X10, X5
	ADDPD X4, X10
	MOVAPD X5, X2
	UNPCKLPD X10, X2
	UNPCKHPD X10, X5
	MOVUPD (SI), X3
	ADDPD X3, X2
	MOVUPD X2, (DI)
	ADDPD X2, X5
	MOVUPD X5, (DX)
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, DX
	ADDQ $4, R8
	ADDQ $4, R9
	SUBQ $2, CX
	CMPQ CX, $2
	JGE sumLoop

sumLast:
	TESTQ CX, CX
	JZ sumDone
	MOVWLZX (R8), AX
	MOVWLZX (R9), BX
	SHLL $16, BX
	ORL BX, AX
	MOVQ AX, X0
	MASKS
	MOVSD (DI), X2
	MOVHPD (DX), X2
	ANDPD X0, X2
	ADDPD X2, X10
	MOVSD (SI), X3
	ADDSD X10, X3
	MOVSD X3, (DI)
	UNPCKHPD X10, X10
	ADDSD X3, X10
	MOVSD X10, (DX)

sumDone:
	RET

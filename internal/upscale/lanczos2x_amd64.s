#include "textflag.h"

// The ×2 Lanczos-3 MACs on SSE2, the amd64 baseline, two float64 lanes per
// instruction. Every lane does what the Go loops in lanczos2x.go do to one
// sample: six MULPDs, the products added left to right by ADDPD, then
// clampByte as MAXPD against 0 (a sum ≤ 0, −0 included, becomes +0), MINPD
// against 255, ADDPD 0.5 and CVTTPD2PL's truncation. The Go wrappers
// establish every bound: these loops trust n.

// CLAMPCONSTS loads CLAMP's constants: X14 = 0, X6 = 255 and X7 = 0.5 in
// both lanes (AX is clobbered).
#define CLAMPCONSTS \
	XORPD X14, X14; \
	MOVQ $0x406FE00000000000, AX; \
	MOVQ AX, X6; \
	PUNPCKLQDQ X6, X6; \
	MOVQ $0x3FE0000000000000, AX; \
	MOVQ AX, X7; \
	PUNPCKLQDQ X7, X7

// CLAMP is clampByte on the lane pair X, leaving two int32 in its low half.
#define CLAMP(X) \
	MAXPD X14, X; \
	MINPD X6, X; \
	ADDPD X7, X; \
	CVTTPD2PL X, X

// func across6Pairs(dst, s *float64, pw *[12]float64, n int)
//
// For k < n: lane 0 sums pw[2j]·s[k+j] and lane 1 pw[2j+1]·s[k+1+j] over
// j = 0 … 5 — one unaligned pair load per tap serves both phases — and
// dst[2k], dst[2k+1] receive the clamped, rounded sums as float64.
TEXT ·across6Pairs(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ pw+16(FP), DX
	MOVQ n+24(FP), CX
	MOVUPD 0(DX), X8
	MOVUPD 16(DX), X9
	MOVUPD 32(DX), X10
	MOVUPD 48(DX), X11
	MOVUPD 64(DX), X12
	MOVUPD 80(DX), X13
	CLAMPCONSTS
	TESTQ CX, CX
	JLE acrossDone

acrossLoop:
	MOVUPD 0(SI), X0
	MULPD X8, X0
	MOVUPD 8(SI), X1
	MULPD X9, X1
	ADDPD X1, X0
	MOVUPD 16(SI), X2
	MULPD X10, X2
	ADDPD X2, X0
	MOVUPD 24(SI), X3
	MULPD X11, X3
	ADDPD X3, X0
	MOVUPD 32(SI), X4
	MULPD X12, X4
	ADDPD X4, X0
	MOVUPD 40(SI), X5
	MULPD X13, X5
	ADDPD X5, X0
	CLAMP(X0)
	CVTPL2PD X0, X0
	MOVUPD X0, 0(DI)

	ADDQ $8, SI
	ADDQ $16, DI
	DECQ CX
	JNZ acrossLoop

acrossDone:
	RET

// TAP adds row R's eight samples at AX, times the broadcast weight W, into
// the four lane pairs X0 … X3.
#define TAP(R, W) \
	MOVUPD 0(R)(AX*1), X4; \
	MULPD W, X4; \
	ADDPD X4, X0; \
	MOVUPD 16(R)(AX*1), X5; \
	MULPD W, X5; \
	ADDPD X5, X1; \
	MOVUPD 32(R)(AX*1), X4; \
	MULPD W, X4; \
	ADDPD X4, X2; \
	MOVUPD 48(R)(AX*1), X5; \
	MULPD W, X5; \
	ADDPD X5, X3

// BROADCAST loads the float64 at off(AX) into both lanes of X.
#define BROADCAST(off, X) \
	MOVSD off(AX), X; \
	UNPCKLPD X, X

// func down6x8(out *uint8, r0, r1, r2, r3, r4, r5 *float64, wt *[6]float64, n int)
//
// For x < n, eight at a time in four lane pairs: out[x] = the clamped,
// rounded Σ wt[j]·rj[x], packed from int32 to bytes (the values are
// 0 … 255, so neither saturating pack changes them).
TEXT ·down6x8(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ r0+8(FP), SI
	MOVQ r1+16(FP), DX
	MOVQ r2+24(FP), BX
	MOVQ r3+32(FP), R8
	MOVQ r4+40(FP), R9
	MOVQ r5+48(FP), R10
	MOVQ wt+56(FP), AX
	MOVQ n+64(FP), CX
	BROADCAST(0, X8)
	BROADCAST(8, X9)
	BROADCAST(16, X10)
	BROADCAST(24, X11)
	BROADCAST(32, X12)
	BROADCAST(40, X13)
	CLAMPCONSTS
	XORQ AX, AX
	TESTQ CX, CX
	JLE downDone

downLoop:
	MOVUPD 0(SI)(AX*1), X0
	MULPD X8, X0
	MOVUPD 16(SI)(AX*1), X1
	MULPD X8, X1
	MOVUPD 32(SI)(AX*1), X2
	MULPD X8, X2
	MOVUPD 48(SI)(AX*1), X3
	MULPD X8, X3
	TAP(DX, X9)
	TAP(BX, X10)
	TAP(R8, X11)
	TAP(R9, X12)
	TAP(R10, X13)
	CLAMP(X0)
	CLAMP(X1)
	CLAMP(X2)
	CLAMP(X3)
	PUNPCKLQDQ X1, X0
	PUNPCKLQDQ X3, X2
	PACKSSLW X2, X0
	PACKUSWB X0, X0
	MOVQ X0, 0(DI)

	ADDQ $64, AX
	ADDQ $8, DI
	SUBQ $8, CX
	JG downLoop

downDone:
	RET

#include "textflag.h"

// The sharpen's output expression on SSE2, eight pixels a call in four
// float64 lane pairs. Each lane does what sharpen8 does to one pixel: the
// blur sum times 1/16 (exact, as sharpen8's /16 is), v − that, times α,
// plus v, then max against lo and min against hi with the operands ordered
// so that a NaN sum passes through both (MAXPD/MINPD return their second
// operand on NaN, as Go's max and min return NaN), + 0.5 and CVTTPD2PL's
// truncation. The results are 0 … 255, or the integer indefinite for a NaN,
// which the saturating packs turn into 0 — the byte Go's conversion of a NaN
// leaves on amd64.

// HALF computes four pixels: B, L, H and V hold their blur sums, lo, hi and
// source samples as int32 lanes; the four results end in B's low lanes as
// int32. X8 … X10 are scratch; X11 = 1/16, X12 = α, X13 = 0.5 in both lanes.
#define HALF(B, L, H, V) \
	CVTPL2PD V, X8; \
	CVTPL2PD B, X9; \
	MULPD X11, X9; \
	MOVAPD X8, X10; \
	SUBPD X9, X10; \
	MULPD X12, X10; \
	ADDPD X8, X10; \
	CVTPL2PD L, X9; \
	MAXPD X10, X9; \
	CVTPL2PD H, X10; \
	MINPD X9, X10; \
	ADDPD X13, X10; \
	CVTTPD2PL X10, X10; \
	PSHUFD $0xEE, V, V; \
	CVTPL2PD V, V; \
	PSHUFD $0xEE, B, B; \
	CVTPL2PD B, B; \
	MULPD X11, B; \
	MOVAPD V, X8; \
	SUBPD B, X8; \
	MULPD X12, X8; \
	ADDPD V, X8; \
	PSHUFD $0xEE, L, L; \
	CVTPL2PD L, L; \
	MAXPD X8, L; \
	PSHUFD $0xEE, H, H; \
	CVTPL2PD H, H; \
	MINPD L, H; \
	ADDPD X13, H; \
	CVTTPD2PL H, H; \
	PUNPCKLQDQ H, X10; \
	MOVO X10, B

// func sharpen8x(dst, src *uint8, even, odd, los, his uint64, alpha float64)
TEXT ·sharpen8x(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	PXOR X14, X14

	// Blur sums: even pixels in even's 16-bit lanes, odd ones in odd's.
	MOVQ even+16(FP), X0
	MOVQ odd+24(FP), X8
	PUNPCKLWL X8, X0
	MOVO X0, X1
	PUNPCKLWL X14, X0
	PUNPCKHWL X14, X1

	MOVQ los+32(FP), X2
	PUNPCKLBW X14, X2
	MOVO X2, X3
	PUNPCKLWL X14, X2
	PUNPCKHWL X14, X3

	MOVQ his+40(FP), X4
	PUNPCKLBW X14, X4
	MOVO X4, X5
	PUNPCKLWL X14, X4
	PUNPCKHWL X14, X5

	MOVQ 0(SI), X6
	PUNPCKLBW X14, X6
	MOVO X6, X7
	PUNPCKLWL X14, X6
	PUNPCKHWL X14, X7

	MOVQ $0x3FB0000000000000, AX // 1/16
	MOVQ AX, X11
	PUNPCKLQDQ X11, X11
	MOVSD alpha+48(FP), X12
	UNPCKLPD X12, X12
	MOVQ $0x3FE0000000000000, AX // 0.5
	MOVQ AX, X13
	PUNPCKLQDQ X13, X13

	HALF(X0, X2, X4, X6)
	HALF(X1, X3, X5, X7)
	PACKSSLW X1, X0
	PACKUSWB X0, X0
	MOVQ X0, 0(DI)
	RET

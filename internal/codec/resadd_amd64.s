#include "textflag.h"

// The decoder's residual add on one occupied word, 64 byte lanes in four
// SSE2 passes (DESIGN.md §28). PDEP deposits the group's sign bits on the
// word's set bits, the k-th sign on the k-th non-zero, as the scalar walk
// pairs them; the escapes are masked out of both lane masks. A lane whose
// bit is set takes PADDUSB q or PSUBUSB q, which is clamp8(p ± q) for q ≤
// 255; every other lane adds and subtracts 0. addResiduals establishes the
// bounds: the 64 bytes at p lie inside the band.

// bitsel holds 1 << i in byte i of each half: a byte that repeats one mask
// byte eight times, ANDed with it and compared back, is eight lane masks.
DATA bitsel<>+0(SB)/8, $0x8040201008040201
DATA bitsel<>+8(SB)/8, $0x8040201008040201
GLOBL bitsel<>(SB), RODATA|NOPTR, $16

// LANES expands the 64-bit mask in GPR r into sixteen-byte lane masks a–d
// (lanes 0–15, 16–31, 32–47, 48–63), each lane worth q where its bit is
// set and 0 elsewhere. X14 holds bitsel and X15 q in every byte.
#define LANES(r, a, b, c, d) \
	MOVQ r, a; \
	PUNPCKLBW a, a; \
	MOVO a, c; \
	PUNPCKLWL a, a; \
	PUNPCKHWL c, c; \
	MOVO a, b; \
	MOVO c, d; \
	PUNPCKLLQ a, a; \
	PUNPCKHLQ b, b; \
	PUNPCKLLQ c, c; \
	PUNPCKHLQ d, d; \
	PAND X14, a; \
	PAND X14, b; \
	PAND X14, c; \
	PAND X14, d; \
	PCMPEQB X14, a; \
	PCMPEQB X14, b; \
	PCMPEQB X14, c; \
	PCMPEQB X14, d; \
	PAND X15, a; \
	PAND X15, b; \
	PAND X15, c; \
	PAND X15, d

// ADDSUB applies one sixteen-byte pass at offset off from p.
#define ADDSUB(off, pos, neg, t) \
	MOVOU off(DI), t; \
	PADDUSB pos, t; \
	PSUBUSB neg, t; \
	MOVOU t, off(DI)

// func addWord(p *uint8, w, sb, esc uint64, q int32)
TEXT ·addWord(SB), NOSPLIT, $0-36
	MOVQ p+0(FP), DI
	MOVQ w+8(FP), AX
	MOVQ sb+16(FP), BX
	MOVQ esc+24(FP), CX
	MOVL q+32(FP), DX

	PDEPQ AX, BX, R8 // R8: the negative non-zeros
	XORQ R8, AX      // AX: the positive ones (R8 ⊆ w)
	NOTQ CX
	ANDQ CX, AX
	ANDQ CX, R8

	MOVOU bitsel<>(SB), X14
	MOVQ DX, X15
	PUNPCKLBW X15, X15
	PUNPCKLWL X15, X15
	PSHUFD $0, X15, X15

	LANES(AX, X0, X1, X2, X3)
	LANES(R8, X4, X5, X6, X7)
	ADDSUB(0, X0, X4, X8)
	ADDSUB(16, X1, X5, X9)
	ADDSUB(32, X2, X6, X10)
	ADDSUB(48, X3, X7, X11)
	RET

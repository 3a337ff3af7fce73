#include "textflag.h"

// AES-128 over several independent blocks with AES-NI. Each round key is
// loaded once and applied to every block before the next round starts, so
// the blocks' AESENC chains run interleaved instead of back to back. Round
// keys are the 176-byte FIPS-197 expansion (see keyschedule.go). The
// kernels build their own AES inputs: a run is four tweaks lo ‖ hi+j that
// differ only in the block index in hi's low byte.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// RUN builds the four tweaks lo ‖ hi+j, j = 0..3, of one run in the
// registers a..d. X9 must hold lo in its low half and X11 the lane
// increment (0 ‖ 1).
#define RUN(hi, a, b, c, d) \
	MOVQ hi, X10; \
	MOVO X9, a; \
	PUNPCKLQDQ X10, a; \
	MOVO a, b; \
	PADDQ X11, b; \
	MOVO b, c; \
	PADDQ X11, c; \
	MOVO c, d; \
	PADDQ X11, d

// SETUP loads lo into X9 and the increment (0 ‖ 1) into X11.
#define SETUP(lo) \
	MOVQ lo, X9; \
	MOVQ $1, R8; \
	MOVQ R8, X11; \
	PSLLDQ $8, X11

#define ROUND8(op, off) \
	MOVUPS off(AX), X8; \
	op X8, X0; \
	op X8, X1; \
	op X8, X2; \
	op X8, X3; \
	op X8, X4; \
	op X8, X5; \
	op X8, X6; \
	op X8, X7

// func encrypt8(xk *[176]byte, dst0, dst1 *byte, lo, hi0, hi1 uint64)
TEXT ·encrypt8(SB), NOSPLIT, $0-48
	MOVQ xk+0(FP), AX
	MOVQ dst0+8(FP), DI
	MOVQ dst1+16(FP), SI
	MOVQ lo+24(FP), BX
	MOVQ hi0+32(FP), CX
	MOVQ hi1+40(FP), DX
	SETUP(BX)
	RUN(CX, X0, X1, X2, X3)
	RUN(DX, X4, X5, X6, X7)
	ROUND8(PXOR, 0)
	ROUND8(AESENC, 16)
	ROUND8(AESENC, 32)
	ROUND8(AESENC, 48)
	ROUND8(AESENC, 64)
	ROUND8(AESENC, 80)
	ROUND8(AESENC, 96)
	ROUND8(AESENC, 112)
	ROUND8(AESENC, 128)
	ROUND8(AESENC, 144)
	ROUND8(AESENCLAST, 160)
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 0(SI)
	MOVUPS X5, 16(SI)
	MOVUPS X6, 32(SI)
	MOVUPS X7, 48(SI)
	RET

#define ROUND4(op, off) \
	MOVUPS off(AX), X8; \
	op X8, X0; \
	op X8, X1; \
	op X8, X2; \
	op X8, X3

// func encrypt4(xk *[176]byte, dst *byte, lo, hi uint64)
TEXT ·encrypt4(SB), NOSPLIT, $0-32
	MOVQ xk+0(FP), AX
	MOVQ dst+8(FP), DI
	MOVQ lo+16(FP), BX
	MOVQ hi+24(FP), CX
	SETUP(BX)
	RUN(CX, X0, X1, X2, X3)
	ROUND4(PXOR, 0)
	ROUND4(AESENC, 16)
	ROUND4(AESENC, 32)
	ROUND4(AESENC, 48)
	ROUND4(AESENC, 64)
	ROUND4(AESENC, 80)
	ROUND4(AESENC, 96)
	ROUND4(AESENC, 112)
	ROUND4(AESENC, 128)
	ROUND4(AESENC, 144)
	ROUND4(AESENCLAST, 160)
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

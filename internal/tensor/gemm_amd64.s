//go:build !purego

// GEMM micro-kernels, SSE2 baseline (no CPUID dispatch: SSE2 is
// architecturally guaranteed on amd64).
//
// float32 8×4. Register plan:
//
//	X0–X7  one 4-lane C row each (c[r][0..3])
//	X8     the current 4-wide B row b[l][0..3]
//	X9–X15 broadcast A scalars a[r][l], one MULPS temporary per row
//
// Per k step: 1 MOVUPS B load + per row (MOVSS load, SHUFPS broadcast,
// MULPS, ADDPS) = 32 f32 FLOPs on 8 independent accumulator chains.
// Accumulation is MULPS-then-ADDPS (two roundings, no FMA) in strictly
// ascending k order — bitwise the same schedule as the scalar fallback,
// which keeps cross-platform goldens byte-identical.

#include "textflag.h"

// func microF32SIMD(kc int, ap, bp, acc *float32)
TEXT ·microF32SIMD(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JZ    store

loop:
	MOVUPS (DI), X8

	MOVSS  (SI), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X0

	MOVSS  4(SI), X10
	SHUFPS $0x00, X10, X10
	MULPS  X8, X10
	ADDPS  X10, X1

	MOVSS  8(SI), X11
	SHUFPS $0x00, X11, X11
	MULPS  X8, X11
	ADDPS  X11, X2

	MOVSS  12(SI), X12
	SHUFPS $0x00, X12, X12
	MULPS  X8, X12
	ADDPS  X12, X3

	MOVSS  16(SI), X13
	SHUFPS $0x00, X13, X13
	MULPS  X8, X13
	ADDPS  X13, X4

	MOVSS  20(SI), X14
	SHUFPS $0x00, X14, X14
	MULPS  X8, X14
	ADDPS  X14, X5

	MOVSS  24(SI), X15
	SHUFPS $0x00, X15, X15
	MULPS  X8, X15
	ADDPS  X15, X6

	MOVSS  28(SI), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X7

	ADDQ $32, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  loop

store:
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	MOVUPS X4, 64(DX)
	MOVUPS X5, 80(DX)
	MOVUPS X6, 96(DX)
	MOVUPS X7, 112(DX)
	RET

// float64 4×4. A row of the C tile is four doubles = two XMM registers,
// so the tile again fills 8 accumulators. Register plan:
//
//	X0–X7   C rows: X(2r) = c[r][0..1], X(2r+1) = c[r][2..3]
//	X8, X9  the current B row b[l][0..1], b[l][2..3]
//	X10–X15 broadcast A scalars a[r][l] and their MULPD temporaries
//
// Per k step: 2 MOVUPD B loads + per row (MOVSD load, UNPCKLPD
// broadcast, register copy, 2 MULPD, 2 ADDPD) = 32 f64 FLOPs on 8
// independent accumulator chains — MULPD-then-ADDPD, no FMA, strictly
// ascending k: bitwise the schedule of micro4x4.

// func microF64SIMD(kc int, ap, bp, acc *float64)
TEXT ·microF64SIMD(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JZ    store64

loop64:
	MOVUPD (DI), X8
	MOVUPD 16(DI), X9

	MOVSD    (SI), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X0
	ADDPD    X11, X1

	MOVSD    8(SI), X12
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X2
	ADDPD    X13, X3

	MOVSD    16(SI), X14
	UNPCKLPD X14, X14
	MOVAPD   X14, X15
	MULPD    X8, X14
	MULPD    X9, X15
	ADDPD    X14, X4
	ADDPD    X15, X5

	MOVSD    24(SI), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X6
	ADDPD    X11, X7

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop64

store64:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	RET

// Indirect (pack-free) variants: the same two tiles on the same schedule,
// with the A micro-panel read in place instead of from a packed buffer —
// a[r][l] = x[rowOff[r] + depthOff[l]] (element offsets). The row bases
// x + rowOff[r] live in general registers for the whole k loop, a k step
// loads one depth offset and uses it as the index of every row's scalar
// load; B, the accumulators and every arithmetic instruction are exactly
// those of the packed kernels above, so the bits are too.

// func microIndF32SIMD(kc int, x *float32, rowOff, depthOff *int, bp, acc *float32)
TEXT ·microIndF32SIMD(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), CX
	MOVQ rowOff+16(FP), AX
	MOVQ (AX), R8
	LEAQ (CX)(R8*4), R8
	MOVQ 8(AX), R9
	LEAQ (CX)(R9*4), R9
	MOVQ 16(AX), R10
	LEAQ (CX)(R10*4), R10
	MOVQ 24(AX), R11
	LEAQ (CX)(R11*4), R11
	MOVQ 32(AX), R12
	LEAQ (CX)(R12*4), R12
	MOVQ 40(AX), R13
	LEAQ (CX)(R13*4), R13
	MOVQ 48(AX), SI
	LEAQ (CX)(SI*4), SI
	MOVQ 56(AX), BX
	LEAQ (CX)(BX*4), BX
	MOVQ kc+0(FP), CX
	MOVQ depthOff+24(FP), DX
	MOVQ bp+32(FP), DI

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JZ    storeind

loopind:
	MOVQ   (DX), AX
	MOVUPS (DI), X8

	MOVSS  (R8)(AX*4), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X0

	MOVSS  (R9)(AX*4), X10
	SHUFPS $0x00, X10, X10
	MULPS  X8, X10
	ADDPS  X10, X1

	MOVSS  (R10)(AX*4), X11
	SHUFPS $0x00, X11, X11
	MULPS  X8, X11
	ADDPS  X11, X2

	MOVSS  (R11)(AX*4), X12
	SHUFPS $0x00, X12, X12
	MULPS  X8, X12
	ADDPS  X12, X3

	MOVSS  (R12)(AX*4), X13
	SHUFPS $0x00, X13, X13
	MULPS  X8, X13
	ADDPS  X13, X4

	MOVSS  (R13)(AX*4), X14
	SHUFPS $0x00, X14, X14
	MULPS  X8, X14
	ADDPS  X14, X5

	MOVSS  (SI)(AX*4), X15
	SHUFPS $0x00, X15, X15
	MULPS  X8, X15
	ADDPS  X15, X6

	MOVSS  (BX)(AX*4), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X7

	ADDQ $8, DX
	ADDQ $16, DI
	DECQ CX
	JNZ  loopind

storeind:
	MOVQ   acc+40(FP), DX
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	MOVUPS X4, 64(DX)
	MOVUPS X5, 80(DX)
	MOVUPS X6, 96(DX)
	MOVUPS X7, 112(DX)
	RET

// func microIndF64SIMD(kc int, x *float64, rowOff, depthOff *int, bp, acc *float64)
TEXT ·microIndF64SIMD(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), CX
	MOVQ rowOff+16(FP), AX
	MOVQ (AX), R8
	LEAQ (CX)(R8*8), R8
	MOVQ 8(AX), R9
	LEAQ (CX)(R9*8), R9
	MOVQ 16(AX), R10
	LEAQ (CX)(R10*8), R10
	MOVQ 24(AX), R11
	LEAQ (CX)(R11*8), R11
	MOVQ kc+0(FP), CX
	MOVQ depthOff+24(FP), DX
	MOVQ bp+32(FP), DI

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

	TESTQ CX, CX
	JZ    storeind64

loopind64:
	MOVQ   (DX), AX
	MOVUPD (DI), X8
	MOVUPD 16(DI), X9

	MOVSD    (R8)(AX*8), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X0
	ADDPD    X11, X1

	MOVSD    (R9)(AX*8), X12
	UNPCKLPD X12, X12
	MOVAPD   X12, X13
	MULPD    X8, X12
	MULPD    X9, X13
	ADDPD    X12, X2
	ADDPD    X13, X3

	MOVSD    (R10)(AX*8), X14
	UNPCKLPD X14, X14
	MOVAPD   X14, X15
	MULPD    X8, X14
	MULPD    X9, X15
	ADDPD    X14, X4
	ADDPD    X15, X5

	MOVSD    (R11)(AX*8), X10
	UNPCKLPD X10, X10
	MOVAPD   X10, X11
	MULPD    X8, X10
	MULPD    X9, X11
	ADDPD    X10, X6
	ADDPD    X11, X7

	ADDQ $8, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loopind64

storeind64:
	MOVQ   acc+40(FP), DX
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	RET

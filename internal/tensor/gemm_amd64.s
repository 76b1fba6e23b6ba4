//go:build !purego

// GEMM micro-kernels for amd64 hosts with AVX: gemm_amd64.go routes the
// register tiles here where cpuHasAVX says so, and gemm.go runs the Go
// twins (micro4x4, micro8x4, microInd) everywhere else. Four kernels —
// {packed, indirect A} × {float32 8×8, float64 4×4} — then the
// store-through tails (bottom of the file) through which each of them
// writes its tile: into C itself on a first k-panel, epilogue included,
// or into the accumulator mergeTile (gemm.go) finishes. No FMA anywhere
// (`make nofma` reads the assembler's listing of this file).

#include "go_asm.h"
#include "textflag.h"

// One YMM register holds a whole C-tile row: four doubles, so float64's
// 4×4 tile lives in 4 accumulators, and eight singles, so float32's is
// 8×8 in 8. Per k step and per row: broadcast-load a[r][l], VMULP* by the
// B row, VADDP* into the row's accumulator — two roundings (product = a·b
// with a the first source, sum = acc + product with acc the first source,
// which pins how NaN payloads propagate), k strictly ascending, no FMA.
// Each output element therefore sees the operation sequence it sees in
// the Go twins; only how many elements share an instruction differs. Its
// k loop done, a kernel loads its destination arguments (c, ld, nrv,
// bias, flags) into DX, AX, CX, BX, SI and jumps to the store-through
// tail of its width, which returns to the caller for it. VZEROUPPER
// before that RET keeps the compiler's scalar SSE code that follows off
// the AVX→SSE transition penalty.

// func cpuHasAVX() bool
//
// CPUID.1:ECX must report OSXSAVE (bit 27) and AVX (bit 28), and XCR0 must
// have the SSE and AVX state bits (1 and 2) set: the OS saves YMM.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// float32 8×8: Y0–Y7 one 8-lane C row each, Y8 the current B row
// b[l][0..7], Y9–Y15 the broadcast A scalars and their products. Per k
// step 1 B load + per row (VBROADCASTSS, VMULPS, VADDPS) = 128 f32 FLOPs
// on 8 independent accumulator chains.

// func microF32AVX(kc int, ap, bp, c *float32, ld, nrv int, bias *float32, flags int)
TEXT ·microF32AVX(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    storef32avx

loopf32avx:
	VMOVUPS (DI), Y8

	VBROADCASTSS (SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0

	VBROADCASTSS 4(SI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1

	VBROADCASTSS 8(SI), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2

	VBROADCASTSS 12(SI), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3

	VBROADCASTSS 16(SI), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4

	VBROADCASTSS 20(SI), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5

	VBROADCASTSS 24(SI), Y15
	VMULPS       Y8, Y15, Y15
	VADDPS       Y15, Y6, Y6

	VBROADCASTSS 28(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loopf32avx

storef32avx:
	MOVQ c+24(FP), DX
	MOVQ ld+32(FP), AX
	MOVQ nrv+40(FP), CX
	MOVQ bias+48(FP), BX
	MOVQ flags+56(FP), SI
	JMP  ·microStoreF32AVX(SB)

// float64 4×4: Y0–Y3 one 4-lane C row each, Y4 the current B row
// b[l][0..3], Y5–Y7 the broadcast A scalars and their products. Per k
// step 1 B load + per row (VBROADCASTSD, VMULPD, VADDPD) = 32 f64 FLOPs
// on 4 independent accumulator chains.

// func microF64AVX(kc int, ap, bp, c *float64, ld, nrv int, bias *float64, flags int)
TEXT ·microF64AVX(SB), NOSPLIT, $0-64
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    storef64avx

loopf64avx:
	VMOVUPD (DI), Y4

	VBROADCASTSD (SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0

	VBROADCASTSD 8(SI), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1

	VBROADCASTSD 16(SI), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2

	VBROADCASTSD 24(SI), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loopf64avx

storef64avx:
	MOVQ c+24(FP), DX
	MOVQ ld+32(FP), AX
	MOVQ nrv+40(FP), CX
	MOVQ bias+48(FP), BX
	MOVQ flags+56(FP), SI
	JMP  ·microStoreF64AVX(SB)

// Indirect (pack-free) variants: the same two tiles on the same schedule,
// with the A micro-panel read in place instead of from a packed buffer —
// a[r][l] = x[rowOff[r] + depthOff[l]] (element offsets). The row bases
// x + rowOff[r] live in general registers for the whole k loop; a k step
// loads one depth offset and uses it as the index of every row's
// broadcast load. B, the accumulators and every arithmetic instruction
// are exactly those of the packed kernels above, so the bits are too.

// func microIndF32AVX(kc int, x *float32, rowOff, depthOff *int, bp, c *float32, ld, nrv int, bias *float32, flags int)
TEXT ·microIndF32AVX(SB), NOSPLIT, $0-80
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

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    storeindf32avx

loopindf32avx:
	MOVQ    (DX), AX
	VMOVUPS (DI), Y8

	VBROADCASTSS (R8)(AX*4), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0

	VBROADCASTSS (R9)(AX*4), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1

	VBROADCASTSS (R10)(AX*4), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2

	VBROADCASTSS (R11)(AX*4), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3

	VBROADCASTSS (R12)(AX*4), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4

	VBROADCASTSS (R13)(AX*4), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5

	VBROADCASTSS (SI)(AX*4), Y15
	VMULPS       Y8, Y15, Y15
	VADDPS       Y15, Y6, Y6

	VBROADCASTSS (BX)(AX*4), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y7, Y7

	ADDQ $8, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loopindf32avx

storeindf32avx:
	MOVQ c+40(FP), DX
	MOVQ ld+48(FP), AX
	MOVQ nrv+56(FP), CX
	MOVQ bias+64(FP), BX
	MOVQ flags+72(FP), SI
	JMP  ·microStoreF32AVX(SB)

// func microIndF64AVX(kc int, x *float64, rowOff, depthOff *int, bp, c *float64, ld, nrv int, bias *float64, flags int)
TEXT ·microIndF64AVX(SB), NOSPLIT, $0-80
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

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	TESTQ CX, CX
	JZ    storeindf64avx

loopindf64avx:
	MOVQ    (DX), AX
	VMOVUPD (DI), Y4

	VBROADCASTSD (R8)(AX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y0, Y0

	VBROADCASTSD (R9)(AX*8), Y6
	VMULPD       Y4, Y6, Y6
	VADDPD       Y6, Y1, Y1

	VBROADCASTSD (R10)(AX*8), Y7
	VMULPD       Y4, Y7, Y7
	VADDPD       Y7, Y2, Y2

	VBROADCASTSD (R11)(AX*8), Y5
	VMULPD       Y4, Y5, Y5
	VADDPD       Y5, Y3, Y3

	ADDQ $8, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  loopindf64avx

storeindf64avx:
	MOVQ c+40(FP), DX
	MOVQ ld+48(FP), AX
	MOVQ nrv+56(FP), CX
	MOVQ bias+64(FP), BX
	MOVQ flags+72(FP), SI
	JMP  ·microStoreF64AVX(SB)

// Store-through tails: where every 256-bit kernel above jumps once its k
// loop is done, the finished products still in registers. They are not
// callable from Go — arguments arrive in registers:
//
//	Y0–Y3 (f64) / Y0–Y7 (f32)  the tile, one row per register
//	DX  &C[first tile row, first tile column]
//	AX  ld: elements from one tile row to the next (row-major C), from
//	    one tile column to the next (tileTrans: position-by-channel C,
//	    where the rows of a tile are adjacent elements)
//	CX  nrv, the valid tile columns, 1…NR
//	BX  &bias[first tile column], nil for none
//	SI  flags: tileReLU | tileTrans (gemm.go)
//
// A tail finishes first-panel tiles only, so it never reads C (later
// k-panels accumulate through mergeTile on every kernel set): the rows
// go through mergeTile's remaining steps in its order — sum + bias (sum
// the first source; a masked load of the nrv valid entries), then
// VMAXP*(v, +0) with v the first source: NaN and −0 give +0, which is
// Select(v > 0, v, 0) — and are stored, as they are into a row-major C
// (VMASKMOV when nrv < NR), or after an in-register transpose as the nrv
// valid columns of a position-by-channel one. With no bias and no clamp
// that is also how a kernel fills the accumulator of the mergeTile
// fallback. Nothing outside the MR×nrv elements is read or written, so a
// tile may end at the end of C.

DATA tailMask64<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask64<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask64<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask64<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask64<>+32(SB)/8, $0
DATA tailMask64<>+40(SB)/8, $0
DATA tailMask64<>+48(SB)/8, $0
DATA tailMask64<>+56(SB)/8, $0
GLOBL tailMask64<>(SB), RODATA|NOPTR, $64

DATA tailMask32<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask32<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask32<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask32<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask32<>+32(SB)/8, $0
DATA tailMask32<>+40(SB)/8, $0
DATA tailMask32<>+48(SB)/8, $0
DATA tailMask32<>+56(SB)/8, $0
GLOBL tailMask32<>(SB), RODATA|NOPTR, $64

// func microStoreF64AVX()
//
// R9 = NR − nrv, the lanes Y14 masks off a row vector (0: none); R8 =
// 3·ld; Y12 = +0; Y13 the bias vector.
TEXT ·microStoreF64AVX(SB), NOSPLIT, $0-0
	SHLQ    $3, AX
	MOVQ    $4, R9
	SUBQ    CX, R9
	LEAQ    tailMask64<>(SB), R8
	VMOVUPD (R8)(R9*8), Y14
	LEAQ    (AX)(AX*2), R8

	TESTQ      BX, BX
	JZ         clampf64
	VMASKMOVPD (BX), Y14, Y13
	VADDPD     Y13, Y0, Y0
	VADDPD     Y13, Y1, Y1
	VADDPD     Y13, Y2, Y2
	VADDPD     Y13, Y3, Y3

clampf64:
	TESTQ  $const_tileReLU, SI
	JZ     layoutf64
	VXORPD Y12, Y12, Y12
	VMAXPD Y12, Y0, Y0
	VMAXPD Y12, Y1, Y1
	VMAXPD Y12, Y2, Y2
	VMAXPD Y12, Y3, Y3

layoutf64:
	TESTQ $const_tileTrans, SI
	JZ    rowsf64
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y0
	VPERM2F128 $0x20, Y7, Y5, Y1
	VPERM2F128 $0x31, Y6, Y4, Y2
	VPERM2F128 $0x31, Y7, Y5, Y3
	CMPQ       CX, $2
	JB         put1f64
	JE         put2f64
	CMPQ       CX, $4
	JB         put3f64
	VMOVUPD    Y3, (DX)(R8*1)

put3f64:
	VMOVUPD Y2, (DX)(AX*2)

put2f64:
	VMOVUPD Y1, (DX)(AX*1)

put1f64:
	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

rowsf64:
	TESTQ R9, R9
	JNZ   putpartf64
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, (DX)(AX*1)
	VMOVUPD Y2, (DX)(AX*2)
	VMOVUPD Y3, (DX)(R8*1)
	VZEROUPPER
	RET

putpartf64:
	VMASKMOVPD Y0, Y14, (DX)
	VMASKMOVPD Y1, Y14, (DX)(AX*1)
	VMASKMOVPD Y2, Y14, (DX)(AX*2)
	VMASKMOVPD Y3, Y14, (DX)(R8*1)
	VZEROUPPER
	RET

// func microStoreF32AVX()
//
// The float32 form: eight 8-lane vectors, and an 8×8 transpose (unpack
// pairs of rows, shuffle pairs of pairs, swap 128-bit halves) that moves
// the tile from Y0–Y7 to Y8–Y15. R10 = &C[·, column 4].
TEXT ·microStoreF32AVX(SB), NOSPLIT, $0-0
	SHLQ    $2, AX
	MOVQ    $8, R9
	SUBQ    CX, R9
	LEAQ    tailMask32<>(SB), R8
	VMOVUPS (R8)(R9*4), Y14
	LEAQ    (AX)(AX*2), R8
	LEAQ    (DX)(AX*4), R10

	TESTQ      BX, BX
	JZ         clampf32
	VMASKMOVPS (BX), Y14, Y13
	VADDPS     Y13, Y0, Y0
	VADDPS     Y13, Y1, Y1
	VADDPS     Y13, Y2, Y2
	VADDPS     Y13, Y3, Y3
	VADDPS     Y13, Y4, Y4
	VADDPS     Y13, Y5, Y5
	VADDPS     Y13, Y6, Y6
	VADDPS     Y13, Y7, Y7

clampf32:
	TESTQ  $const_tileReLU, SI
	JZ     layoutf32
	VXORPS Y12, Y12, Y12
	VMAXPS Y12, Y0, Y0
	VMAXPS Y12, Y1, Y1
	VMAXPS Y12, Y2, Y2
	VMAXPS Y12, Y3, Y3
	VMAXPS Y12, Y4, Y4
	VMAXPS Y12, Y5, Y5
	VMAXPS Y12, Y6, Y6
	VMAXPS Y12, Y7, Y7

layoutf32:
	TESTQ $const_tileTrans, SI
	JZ    rowsf32
	VUNPCKLPS  Y1, Y0, Y8
	VUNPCKHPS  Y1, Y0, Y9
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0
	VSHUFPS    $0xee, Y10, Y8, Y1
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xee, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	CMPQ       CX, $4
	JA         put5to8f32
	JE         put4f32
	CMPQ       CX, $2
	JA         put3f32
	JE         put2f32
	JMP        put1f32

put5to8f32:
	CMPQ    CX, $6
	JB      put5f32
	JE      put6f32
	CMPQ    CX, $8
	JB      put7f32
	VMOVUPS Y15, (R10)(R8*1)

put7f32:
	VMOVUPS Y14, (R10)(AX*2)

put6f32:
	VMOVUPS Y13, (R10)(AX*1)

put5f32:
	VMOVUPS Y12, (R10)

put4f32:
	VMOVUPS Y11, (DX)(R8*1)

put3f32:
	VMOVUPS Y10, (DX)(AX*2)

put2f32:
	VMOVUPS Y9, (DX)(AX*1)

put1f32:
	VMOVUPS Y8, (DX)
	VZEROUPPER
	RET

rowsf32:
	TESTQ R9, R9
	JNZ   putpartf32
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(AX*1)
	VMOVUPS Y2, (DX)(AX*2)
	VMOVUPS Y3, (DX)(R8*1)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, (R10)(AX*1)
	VMOVUPS Y6, (R10)(AX*2)
	VMOVUPS Y7, (R10)(R8*1)
	VZEROUPPER
	RET

putpartf32:
	VMASKMOVPS Y0, Y14, (DX)
	VMASKMOVPS Y1, Y14, (DX)(AX*1)
	VMASKMOVPS Y2, Y14, (DX)(AX*2)
	VMASKMOVPS Y3, Y14, (DX)(R8*1)
	VMASKMOVPS Y4, Y14, (R10)
	VMASKMOVPS Y5, Y14, (R10)(AX*1)
	VMASKMOVPS Y6, Y14, (R10)(AX*2)
	VMASKMOVPS Y7, Y14, (R10)(R8*1)
	VZEROUPPER
	RET

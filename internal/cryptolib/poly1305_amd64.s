// The Poly1305 block loop (RFC 8439 section 2.5) on AVX-512 IFMA
// (VPMADD52LUQ/HUQ, 52×52-bit products), in base 2^44. Eight Horner
// chains run interleaved: lane j of a ZMM register takes every eighth
// block and multiplies by r^8, and the last group multiplies each lane
// by the power that brings its blocks to the exponent a single chain
// would have given them (r^8 … r). The powers are computed per call —
// r^2…r^4 by the scalar multiply below, r^5…r^8 as one vector product
// of those four and r^4 — the lanes are summed at the end, and blocks
// past the last whole group of eight go through the scalar loop.
//
// The scalar loop is the 64-bit-limb schedule of poly1305.blocks in
// chacha20poly1305.go on MULX: four wide products, two narrow ones for
// the bits above 2^128, and the partial reduction that folds t>>130
// back in times 5.
//
// Constant time: the only branches are on the block count.

#include "textflag.h"

// MULR sets h (R8, R9, R10) to h·r mod 2^130 - 5, partially reduced,
// for the clamped r in R11/R12. t = h·r accumulates in R13 (t0), R14
// (t1), R15 (t2) and BX (t3); AX and DX are scratch. The clamped r keeps
// every high word below 2^60 and h2 stays a few bits wide, so t2 takes
// the carries below without overflowing. The reduction adds cc + cc>>2,
// where cc is t with its low 130 bits cleared: 5·(t >> 130).
#define MULR \
	MOVQ  R11, DX; \
	MULXQ R8, R13, R14; \
	MULXQ R9, AX, R15; \
	ADDQ  AX, R14; \
	ADCQ  $0, R15; \
	MOVQ  R10, AX; \
	IMULQ R11, AX; \
	ADDQ  AX, R15; \
	MOVQ  R12, DX; \
	MULXQ R8, AX, BX; \
	ADDQ  AX, R14; \
	ADCQ  BX, R15; \
	MULXQ R9, AX, BX; \
	IMULQ R10, DX; \
	ADDQ  AX, R15; \
	ADCQ  DX, BX; \
	MOVQ  R13, R8; \
	MOVQ  R14, R9; \
	MOVQ  R15, R10; \
	ANDQ  $3, R10; \
	ANDQ  $-4, R15; \
	ADDQ  R15, R8; \
	ADCQ  BX, R9; \
	ADCQ  $0, R10; \
	SHRQ  $2, BX, R15; \
	SHRQ  $2, BX; \
	ADDQ  R15, R8; \
	ADCQ  BX, R9; \
	ADCQ  $0, R10

// BLOCKS absorbs CX blocks from SI into h, each with its 2^128 bit set.
#define BLOCKS(loop, done) \
	TESTQ CX, CX; \
	JZ    done; \
loop: \
	ADDQ 0(SI), R8; \
	ADCQ 8(SI), R9; \
	ADCQ $1, R10; \
	LEAQ 16(SI), SI; \
	MULR; \
	DECQ CX; \
	JNZ  loop; \
done:

DATA polyMask44<>+0(SB)/8, $0xfffffffffff
GLOBL polyMask44<>(SB), RODATA|NOPTR, $8
DATA polyMask42<>+0(SB)/8, $0x3ffffffffff
GLOBL polyMask42<>(SB), RODATA|NOPTR, $8
DATA polyHibit<>+0(SB)/8, $0x10000000000
GLOBL polyHibit<>(SB), RODATA|NOPTR, $8

// VPERMI2Q indexes gathering the low and the high words of eight blocks
// loaded as two rows of four.
DATA polyEven<>+0(SB)/8, $0
DATA polyEven<>+8(SB)/8, $2
DATA polyEven<>+16(SB)/8, $4
DATA polyEven<>+24(SB)/8, $6
DATA polyEven<>+32(SB)/8, $8
DATA polyEven<>+40(SB)/8, $10
DATA polyEven<>+48(SB)/8, $12
DATA polyEven<>+56(SB)/8, $14
GLOBL polyEven<>(SB), RODATA|NOPTR, $64
DATA polyOdd<>+0(SB)/8, $1
DATA polyOdd<>+8(SB)/8, $3
DATA polyOdd<>+16(SB)/8, $5
DATA polyOdd<>+24(SB)/8, $7
DATA polyOdd<>+32(SB)/8, $9
DATA polyOdd<>+40(SB)/8, $11
DATA polyOdd<>+48(SB)/8, $13
DATA polyOdd<>+56(SB)/8, $15
GLOBL polyOdd<>(SB), RODATA|NOPTR, $64

// LIMBS44 stores h (R8, R9, R10) in base 2^44 as lane `lane` of the
// three 32-byte limb rows at 0, 32 and 64(SP). CX holds 2^44 - 1.
#define LIMBS44(lane) \
	MOVQ R8, AX; \
	ANDQ CX, AX; \
	MOVQ AX, (8*lane)(SP); \
	MOVQ R8, AX; \
	SHRQ $44, R9, AX; \
	ANDQ CX, AX; \
	MOVQ AX, (32+8*lane)(SP); \
	MOVQ R9, AX; \
	SHRQ $24, R10, AX; \
	MOVQ AX, (64+8*lane)(SP)

// TIMES20 sets d to 20·s (16s + 4s); t is scratch.
#define TIMES20(s, d, t) \
	VPSLLQ $4, s, t; \
	VPSLLQ $2, s, d; \
	VPADDQ t, d, d

// MUL8 multiplies each lane of h (Z0, Z1, Z2 in base 2^44) by its limbs
// r0, r1, r2 and s1 = 20·r1, s2 = 20·r2 (2^132 ≡ 20), and carries the
// product back to limbs of 44, 44 and 42 bits plus a few. The limb
// product sums d0, d1, d2 take their low and high 52-bit halves in two
// accumulators each, Z3–Z8 (the h0 and h2 terms) and Z26–Z31 (the h1
// term), so no chain of multiply-adds is longer than two; the carry out
// of each limb is taken from all three at once. Z9, Z10, Z14 and Z15 are
// scratch, and Z11 and Z12 hold 2^44 - 1 and 2^42 - 1.
#define MUL8(r0, r1, r2, s1, s2) \
	VPXORQ      Z3, Z3, Z3; \
	VPXORQ      Z4, Z4, Z4; \
	VPXORQ      Z5, Z5, Z5; \
	VPXORQ      Z6, Z6, Z6; \
	VPXORQ      Z7, Z7, Z7; \
	VPXORQ      Z8, Z8, Z8; \
	VPXORQ      Z26, Z26, Z26; \
	VPXORQ      Z27, Z27, Z27; \
	VPXORQ      Z28, Z28, Z28; \
	VPXORQ      Z29, Z29, Z29; \
	VPXORQ      Z30, Z30, Z30; \
	VPXORQ      Z31, Z31, Z31; \
	VPMADD52LUQ r0, Z0, Z3; \
	VPMADD52HUQ r0, Z0, Z4; \
	VPMADD52LUQ r1, Z0, Z5; \
	VPMADD52HUQ r1, Z0, Z6; \
	VPMADD52LUQ r2, Z0, Z7; \
	VPMADD52HUQ r2, Z0, Z8; \
	VPMADD52LUQ s2, Z1, Z26; \
	VPMADD52HUQ s2, Z1, Z27; \
	VPMADD52LUQ r0, Z1, Z28; \
	VPMADD52HUQ r0, Z1, Z29; \
	VPMADD52LUQ r1, Z1, Z30; \
	VPMADD52HUQ r1, Z1, Z31; \
	VPMADD52LUQ s1, Z2, Z3; \
	VPMADD52HUQ s1, Z2, Z4; \
	VPMADD52LUQ s2, Z2, Z5; \
	VPMADD52HUQ s2, Z2, Z6; \
	VPMADD52LUQ r0, Z2, Z7; \
	VPMADD52HUQ r0, Z2, Z8; \
	VPADDQ      Z26, Z3, Z3; \
	VPADDQ      Z27, Z4, Z4; \
	VPADDQ      Z28, Z5, Z5; \
	VPADDQ      Z29, Z6, Z6; \
	VPADDQ      Z30, Z7, Z7; \
	VPADDQ      Z31, Z8, Z8; \
	VPSLLQ      $8, Z4, Z4; \
	VPADDQ      Z4, Z5, Z5; \
	VPSLLQ      $8, Z6, Z6; \
	VPADDQ      Z6, Z7, Z7; \
	VPSLLQ      $10, Z8, Z14; \
	VPSLLQ      $12, Z8, Z8; \
	VPADDQ      Z14, Z8, Z8; \
	VPADDQ      Z8, Z3, Z3; \
	VPSRLQ      $44, Z3, Z9; \
	VPSRLQ      $44, Z5, Z10; \
	VPSRLQ      $42, Z7, Z14; \
	VPANDQ      Z11, Z3, Z0; \
	VPANDQ      Z11, Z5, Z1; \
	VPANDQ      Z12, Z7, Z2; \
	VPSLLQ      $2, Z14, Z15; \
	VPADDQ      Z15, Z14, Z14; \
	VPADDQ      Z14, Z0, Z0; \
	VPADDQ      Z9, Z1, Z1; \
	VPADDQ      Z10, Z2, Z2

// GROUP adds the next eight blocks at SI to the lanes of h, block j in
// lane j, and multiplies by MUL8. Z13 holds the 2^128 bit in limb 2, Z24
// and Z25 the two VPERMI2Q indexes.
#define GROUP(r0, r1, r2, s1, s2) \
	VMOVDQU64 0(SI), Z9; \
	VMOVDQU64 64(SI), Z10; \
	ADDQ      $128, SI; \
	VMOVDQA64 Z24, Z14; \
	VMOVDQA64 Z25, Z15; \
	VPERMI2Q  Z10, Z9, Z14; \
	VPERMI2Q  Z10, Z9, Z15; \
	VPANDQ    Z11, Z14, Z9; \
	VPADDQ    Z9, Z0, Z0; \
	VPSRLQ    $44, Z14, Z14; \
	VPSLLQ    $20, Z15, Z9; \
	VPORQ     Z9, Z14, Z14; \
	VPANDQ    Z11, Z14, Z14; \
	VPADDQ    Z14, Z1, Z1; \
	VPSRLQ    $24, Z15, Z15; \
	VPORQ     Z13, Z15, Z15; \
	VPADDQ    Z15, Z2, Z2; \
	MUL8(r0, r1, r2, s1, s2)

// LANESUM sets g to the sum of the eight lanes of z (Z0–Z2).
#define LANESUM(z, y, x, g) \
	VEXTRACTI64X4 $1, z, Y14; \
	VPADDQ        Y14, y, y; \
	VEXTRACTI128  $1, y, X14; \
	VPADDQ        X14, x, x; \
	VPSHUFD       $0x4e, x, X14; \
	VPADDQ        X14, x, x; \
	VMOVQ         x, g

// func polyBlocksIFMA(h *[3]uint64, r *[2]uint64, m []byte)
//
// Absorbs the len(m)/16 full blocks of m into h, each with its 2^128
// bit set. The frame holds the limbs of r^4, r^3, r^2, r as four lanes, one 32-byte
// row per limb (then those of h as lane 0), and the times-20 rows of r^8.
TEXT ·polyBlocksIFMA(SB), NOSPLIT, $224-40
	MOVQ m_len+24(FP), CX
	SHRQ $7, CX
	JZ   tail

	MOVQ r+8(FP), AX
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	MOVQ R11, R8
	MOVQ R12, R9
	XORQ R10, R10
	MOVQ $0xfffffffffff, CX
	LIMBS44(3)
	MULR
	LIMBS44(2)
	MULR
	LIMBS44(1)
	MULR
	LIMBS44(0)

	// r^8 … r^5 = (r^4 … r) · r^4 in the low four lanes (the high four
	// multiply zeros), then the lane powers r^8 … r in Z21–Z23 and their
	// times-20 rows in Z19 and Z20, and r^8 broadcast in Z16–Z18 with
	// its times-20 rows in Z24 and Z25 for now.
	VPBROADCASTQ polyMask44<>(SB), Z11
	VPBROADCASTQ polyMask42<>(SB), Z12
	VPBROADCASTQ 0(SP), Z16
	VPBROADCASTQ 32(SP), Z17
	VPBROADCASTQ 64(SP), Z18
	TIMES20(Z17, Z19, Z14)
	TIMES20(Z18, Z20, Z14)
	VMOVDQU64 0(SP), Y0
	VMOVDQU64 32(SP), Y1
	VMOVDQU64 64(SP), Y2
	MUL8(Z16, Z17, Z18, Z19, Z20)
	VMOVDQU64 0(SP), Y21
	VMOVDQU64 32(SP), Y22
	VMOVDQU64 64(SP), Y23
	VINSERTI64X4 $1, Y21, Z0, Z21
	VINSERTI64X4 $1, Y22, Z1, Z22
	VINSERTI64X4 $1, Y23, Z2, Z23
	VPBROADCASTQ X21, Z16
	VPBROADCASTQ X22, Z17
	VPBROADCASTQ X23, Z18
	TIMES20(Z17, Z24, Z14)
	TIMES20(Z18, Z25, Z14)
	TIMES20(Z22, Z19, Z14)
	TIMES20(Z23, Z20, Z14)

	// h into lane 0.
	MOVQ h+0(FP), DI
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	LIMBS44(0)
	VMOVQ 0(SP), X0
	VMOVQ 32(SP), X1
	VMOVQ 64(SP), X2

	MOVQ m_base+16(FP), SI
	MOVQ m_len+24(FP), CX
	SHRQ $7, CX
	VPBROADCASTQ polyHibit<>(SB), Z13

	// Every group but the last multiplies by r^8; the r^8 times-20 rows
	// move out of Z24/Z25 for the VPERMI2Q indexes, into the frame.
	VMOVDQU64 Z24, 96(SP)
	VMOVDQU64 Z25, 160(SP)
	VMOVDQU64 polyEven<>(SB), Z24
	VMOVDQU64 polyOdd<>(SB), Z25

groups:
	DECQ CX
	JZ   last
	GROUP(Z16, Z17, Z18, 96(SP), 160(SP))
	JMP  groups

last:
	GROUP(Z21, Z22, Z23, Z19, Z20)

	LANESUM(Z0, Y0, X0, R8)
	LANESUM(Z1, Y1, X1, R9)
	LANESUM(Z2, Y2, X2, R10)
	VZEROUPPER

	// Carry the sum down to 44, 44 and 42 bits (the bits above 2^130
	// fold back times 5), then back to base 2^64.
	MOVQ $0xfffffffffff, R11
	MOVQ $0x3ffffffffff, R12
	MOVQ R8, AX
	SHRQ $44, AX
	ANDQ R11, R8
	ADDQ AX, R9
	MOVQ R9, AX
	SHRQ $44, AX
	ANDQ R11, R9
	ADDQ AX, R10
	MOVQ R10, AX
	SHRQ $42, AX
	ANDQ R12, R10
	LEAQ (AX)(AX*4), AX
	ADDQ AX, R8
	MOVQ R8, AX
	SHRQ $44, AX
	ANDQ R11, R8
	ADDQ AX, R9
	MOVQ R9, AX
	SHLQ $44, AX
	MOVQ R9, BX
	SHRQ $20, BX
	MOVQ R10, DX
	SHLQ $24, DX
	SHRQ $40, R10
	ADDQ AX, R8
	ADCQ DX, BX
	ADCQ $0, R10
	MOVQ BX, R9
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)

tail:
	// The blocks past the last whole group, on the scalar loop.
	MOVQ h+0(FP), DI
	MOVQ r+8(FP), AX
	MOVQ m_len+24(FP), CX
	MOVQ m_base+16(FP), SI
	MOVQ CX, DX
	ANDQ $-128, DX
	ADDQ DX, SI
	SHRQ $4, CX
	ANDQ $7, CX
	MOVQ 0(DI), R8
	MOVQ 8(DI), R9
	MOVQ 16(DI), R10
	MOVQ 0(AX), R11
	MOVQ 8(AX), R12
	BLOCKS(tailLoop, tailDone)
	MOVQ R8, 0(DI)
	MOVQ R9, 8(DI)
	MOVQ R10, 16(DI)
	RET

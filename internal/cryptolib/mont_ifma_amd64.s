// The Montgomery kernel on AVX-512 IFMA (VPMADD52LUQ/HUQ, 52×52-bit
// products) under DHGroup and the RSA keys at 512 and 1024 bits: an
// almost-Montgomery product in radix 2^52 for one stream (montMulIFMA)
// and for two independent streams in lockstep (montMulIFMA2), and the
// masked read of a 16-entry table (montSelectIFMA). A residue is up to 24
// limbs of 52 bits, one per 64-bit lane of three ZMM registers; a modulus
// of L limbs (10 at 512 bits, 20 at 1024) leaves the lanes above L zero,
// and R is 2^(52L). At most 16 limbs the product runs on two registers
// per operand (ROW2, FOLD2, CARRY2, LOAD2), else on three.
//
// A product runs L rows. Row i adds x·y[i] and m·q, with q = T[0]·k0 mod
// 2^52 so that T[0] clears, and shifts T down one lane. The sum is split
// three ways so that q's latency chain is short: X holds the x·y
// products, M the m·q products of limbs 2 and up, each in ZMM lanes
// shifted by VALIGNQ every row, and general registers hold the m·q
// products of limbs 0 and 1, which MULX forms whole as soon as q is
// known. T[i] is X's lane 0 plus the scalar terms, and M's lanes are read
// a row before they fall due, so q waits on no vector product of its own
// row's q. Lanes are left unnormalised during the rows (each stays below
// 2^60) and are carried once at the end: every lane's bits above 52 go to
// the lane above, then the one-bit carries that remain are resolved
// together from two masks, lanes above 2^52-1 (generate) and lanes equal
// to it (propagate), by one addition on a general register.
//
// The result is below 2m for operands below 2m (4m < R), not fully
// reduced: the walks carry residues below 2m and reduce once on leaving
// Montgomery form. Two streams keep one set of registers each and run
// their rows interleaved in one loop.
//
// Constant time: the row count is L and the register count follows L,
// so no branch and no load or store address depends on an operand or on
// the table index montSelectIFMA is given.

#include "textflag.h"

// ROW runs row i for one stream: operands x in xa..xc and m' (m with
// limbs 0 and 1 cleared) in ma..mc; X (the x·y products) in Xa..Xc and M
// (the m'·q products) in Ma..Mc, each shifted down one lane per row, with
// XX and XM the low XMM halves of Xa and Ma. y[i] is at yi, m[0] and m[1]
// at m0 and m1, k0·2^12 at k0. S holds the scalar terms of T[i] and H
// the high half of m[1]·q from the row before, due one lane up. Z31 is
// zero; bx and by take the broadcast y[i] and q; AX, BX, DX, R12 and R13
// are scratch.
//
// T[i] = S + X[0]; q·2^12 = T[i]·k0·2^12 mod 2^64; T[i] + m[0]·q clears
// its low 52 bits, so its carry is ⌈T[i]/2^52⌉ plus the high half of
// m[0]·q. The next S adds to that carry M[1] as this row found it (m'
// puts nothing there in this row), H, and the low half of m[1]·q: the
// products that wait on q take one MULX each, and M's lanes are read a
// row before they are due.
#define ROW(yi, m0, m1, k0, S, H, bx, by, xa, xb, xc, ma, mb, mc, Xa, Xb, Xc, Ma, Mb, Mc, XX, XM) \
	VPBROADCASTQ yi, bx; \
	VPMADD52LUQ  xa, bx, Xa; \
	VPMADD52LUQ  xb, bx, Xb; \
	VPMADD52LUQ  xc, bx, Xc; \
	VPEXTRQ      $1, XM, AX; \
	VMOVQ        XX, R12; \
	ADDQ         S, R12; \
	LEAQ         -1(R12), R13; \
	SARQ         $52, R13; \
	ADDQ         AX, R13; \
	ADDQ         H, R13; \
	MOVQ         R12, DX; \
	IMULQ        k0, DX; \
	MULXQ        m0, AX, BX; \
	MULXQ        m1, AX, H; \
	SHRQ         $12, DX; \
	VPBROADCASTQ DX, by; \
	SHRQ         $12, AX; \
	ADDQ         BX, R13; \
	LEAQ         1(R13)(AX*1), S; \
	VPMADD52LUQ  ma, by, Ma; \
	VPMADD52LUQ  mb, by, Mb; \
	VPMADD52LUQ  mc, by, Mc; \
	VALIGNQ      $1, Xa, Xb, Xa; \
	VALIGNQ      $1, Xb, Xc, Xb; \
	VALIGNQ      $1, Xc, Z31, Xc; \
	VALIGNQ      $1, Ma, Mb, Ma; \
	VALIGNQ      $1, Mb, Mc, Mb; \
	VALIGNQ      $1, Mc, Z31, Mc; \
	VPMADD52HUQ  xa, bx, Xa; \
	VPMADD52HUQ  xb, bx, Xb; \
	VPMADD52HUQ  xc, bx, Xc; \
	VPMADD52HUQ  ma, by, Ma; \
	VPMADD52HUQ  mb, by, Mb; \
	VPMADD52HUQ  mc, by, Mc

// FOLD puts a stream's sums into Xa..Xc: lane 0 of M becomes S (which
// holds M[0] already), H joins lane 1, and M joins X. K4 selects lane 0
// and K5 lane 1; t is scratch.
#define FOLD(S, H, Xa, Xb, Xc, Ma, Mb, Mc, t) \
	VPBROADCASTQ   S, K4, Ma; \
	VPBROADCASTQ.Z H, K5, t; \
	VPADDQ         t, Ma, Ma; \
	VPADDQ         Ma, Xa, Xa; \
	VPADDQ         Mb, Xb, Xb; \
	VPADDQ         Mc, Xc, Xc

// CARRY normalises Xa..Xc to 52-bit limbs, with ta..tc as scratch: every
// lane's bits above 52 go to the lane above, then the one-bit carries
// that remain are resolved together from two masks, lanes above 2^52-1
// (generate) and lanes equal to it (propagate), by one addition on a
// general register. Z30 is 2^52-1 in every lane and Z31 zero.
#define CARRY(Xa, Xb, Xc, ta, tb, tc) \
	VPSRLQ  $52, Xa, ta; \
	VPSRLQ  $52, Xb, tb; \
	VPSRLQ  $52, Xc, tc; \
	VPANDQ  Z30, Xa, Xa; \
	VPANDQ  Z30, Xb, Xb; \
	VPANDQ  Z30, Xc, Xc; \
	VALIGNQ $7, tb, tc, tc; \
	VALIGNQ $7, ta, tb, tb; \
	VALIGNQ $7, Z31, ta, ta; \
	VPADDQ  ta, Xa, Xa; \
	VPADDQ  tb, Xb, Xb; \
	VPADDQ  tc, Xc, Xc; \
	VPCMPUQ $6, Z30, Xa, K1; \
	VPCMPUQ $6, Z30, Xb, K2; \
	VPCMPUQ $6, Z30, Xc, K3; \
	KMOVW   K1, AX; \
	KMOVW   K2, BX; \
	KMOVW   K3, DX; \
	SHLQ    $8, BX; \
	SHLQ    $16, DX; \
	ORQ     BX, AX; \
	ORQ     DX, AX; \
	VPCMPUQ $0, Z30, Xa, K1; \
	VPCMPUQ $0, Z30, Xb, K2; \
	VPCMPUQ $0, Z30, Xc, K3; \
	KMOVW   K1, BX; \
	KMOVW   K2, DX; \
	KMOVW   K3, R12; \
	SHLQ    $8, DX; \
	SHLQ    $16, R12; \
	ORQ     DX, BX; \
	ORQ     R12, BX; \
	LEAQ    (BX)(AX*2), AX; \
	XORQ    BX, AX; \
	KMOVW   AX, K1; \
	SHRQ    $8, AX; \
	KMOVW   AX, K2; \
	SHRQ    $8, AX; \
	KMOVW   AX, K3; \
	VPSUBQ  Z30, Xa, K1, Xa; \
	VPSUBQ  Z30, Xb, K2, Xb; \
	VPSUBQ  Z30, Xc, K3, Xc; \
	VPANDQ  Z30, Xa, Xa; \
	VPANDQ  Z30, Xb, Xb; \
	VPANDQ  Z30, Xc, Xc

// SETUP loads 2^52-1 into every lane of Z30, zero into Z31, and the
// masks for lane 0 (K4), lane 1 (K5) and lanes 2-7 (K6).
#define SETUP \
	MOVQ         $0xfffffffffffff, AX; \
	VPBROADCASTQ AX, Z30; \
	VPXORQ       Z31, Z31, Z31; \
	MOVQ         $1, AX; \
	KMOVW        AX, K4; \
	MOVQ         $2, AX; \
	KMOVW        AX, K5; \
	MOVQ         $0xfc, AX; \
	KMOVW        AX, K6

// LOAD loads one stream's operand x (at off(SI)) and m' (at off(CX), its
// limbs 0 and 1 cleared) and clears its sums.
#define LOAD(off, xa, xb, xc, ma, mb, mc, Xa, Xb, Xc, Ma, Mb, Mc, S, H) \
	VMOVDQU64   off+0(SI), xa; \
	VMOVDQU64   off+64(SI), xb; \
	VMOVDQU64   off+128(SI), xc; \
	VMOVDQU64.Z off+0(CX), K6, ma; \
	VMOVDQU64   off+64(CX), mb; \
	VMOVDQU64   off+128(CX), mc; \
	VPXORQ      Xa, Xa, Xa; \
	VPXORQ      Xb, Xb, Xb; \
	VPXORQ      Xc, Xc, Xc; \
	VPXORQ      Ma, Ma, Ma; \
	VPXORQ      Mb, Mb, Mb; \
	VPXORQ      Mc, Mc, Mc; \
	XORQ        S, S; \
	XORQ        H, H

// ROW2, FOLD2, CARRY2 and LOAD2 are ROW, FOLD, CARRY and LOAD over two
// registers, for moduli of at most 16 limbs.
#define ROW2(yi, m0, m1, k0, S, H, bx, by, xa, xb, ma, mb, Xa, Xb, Ma, Mb, XX, XM) \
	VPBROADCASTQ yi, bx; \
	VPMADD52LUQ  xa, bx, Xa; \
	VPMADD52LUQ  xb, bx, Xb; \
	VPEXTRQ      $1, XM, AX; \
	VMOVQ        XX, R12; \
	ADDQ         S, R12; \
	LEAQ         -1(R12), R13; \
	SARQ         $52, R13; \
	ADDQ         AX, R13; \
	ADDQ         H, R13; \
	MOVQ         R12, DX; \
	IMULQ        k0, DX; \
	MULXQ        m0, AX, BX; \
	MULXQ        m1, AX, H; \
	SHRQ         $12, DX; \
	VPBROADCASTQ DX, by; \
	SHRQ         $12, AX; \
	ADDQ         BX, R13; \
	LEAQ         1(R13)(AX*1), S; \
	VPMADD52LUQ  ma, by, Ma; \
	VPMADD52LUQ  mb, by, Mb; \
	VALIGNQ      $1, Xa, Xb, Xa; \
	VALIGNQ      $1, Xb, Z31, Xb; \
	VALIGNQ      $1, Ma, Mb, Ma; \
	VALIGNQ      $1, Mb, Z31, Mb; \
	VPMADD52HUQ  xa, bx, Xa; \
	VPMADD52HUQ  xb, bx, Xb; \
	VPMADD52HUQ  ma, by, Ma; \
	VPMADD52HUQ  mb, by, Mb

#define FOLD2(S, H, Xa, Xb, Ma, Mb, t) \
	VPBROADCASTQ   S, K4, Ma; \
	VPBROADCASTQ.Z H, K5, t; \
	VPADDQ         t, Ma, Ma; \
	VPADDQ         Ma, Xa, Xa; \
	VPADDQ         Mb, Xb, Xb

#define CARRY2(Xa, Xb, ta, tb) \
	VPSRLQ  $52, Xa, ta; \
	VPSRLQ  $52, Xb, tb; \
	VPANDQ  Z30, Xa, Xa; \
	VPANDQ  Z30, Xb, Xb; \
	VALIGNQ $7, ta, tb, tb; \
	VALIGNQ $7, Z31, ta, ta; \
	VPADDQ  ta, Xa, Xa; \
	VPADDQ  tb, Xb, Xb; \
	VPCMPUQ $6, Z30, Xa, K1; \
	VPCMPUQ $6, Z30, Xb, K2; \
	KMOVW   K1, AX; \
	KMOVW   K2, BX; \
	SHLQ    $8, BX; \
	ORQ     BX, AX; \
	VPCMPUQ $0, Z30, Xa, K1; \
	VPCMPUQ $0, Z30, Xb, K2; \
	KMOVW   K1, BX; \
	KMOVW   K2, DX; \
	SHLQ    $8, DX; \
	ORQ     DX, BX; \
	LEAQ    (BX)(AX*2), AX; \
	XORQ    BX, AX; \
	KMOVW   AX, K1; \
	SHRQ    $8, AX; \
	KMOVW   AX, K2; \
	VPSUBQ  Z30, Xa, K1, Xa; \
	VPSUBQ  Z30, Xb, K2, Xb; \
	VPANDQ  Z30, Xa, Xa; \
	VPANDQ  Z30, Xb, Xb

#define LOAD2(off, xa, xb, ma, mb, Xa, Xb, Ma, Mb, S, H) \
	VMOVDQU64   off+0(SI), xa; \
	VMOVDQU64   off+64(SI), xb; \
	VMOVDQU64.Z off+0(CX), K6, ma; \
	VMOVDQU64   off+64(CX), mb; \
	VPXORQ      Xa, Xa, Xa; \
	VPXORQ      Xb, Xb, Xb; \
	VPXORQ      Ma, Ma, Ma; \
	VPXORQ      Mb, Mb, Mb; \
	XORQ        S, S; \
	XORQ        H, H

// func montMulIFMA(z, x, y, m *montNat, k0 uint64, limbs int)
//
// z = x·y·2^(-52·limbs) mod m, below 2m, for x, y < 2m, with k0 =
// -m⁻¹ mod 2^52 in the top 52 bits; z may alias x or y.
TEXT ·montMulIFMA(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), R14
	MOVQ limbs+40(FP), R11
	SETUP
	CMPQ R11, $16
	JLE  narrow1
	LOAD(0, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, R9, R10)

row1:
	ROW((R8), 0(CX), 8(CX), R14, R9, R10, Z20, Z21, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, X0, X3)
	ADDQ $8, R8
	DECQ R11
	JNZ  row1

	FOLD(R9, R10, Z0, Z1, Z2, Z3, Z4, Z5, Z6)
	CARRY(Z0, Z1, Z2, Z6, Z7, Z8)
	MOVQ      z+0(FP), DI
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VZEROUPPER
	RET

narrow1:
	LOAD2(0, Z10, Z11, Z13, Z14, Z0, Z1, Z3, Z4, R9, R10)

nrow1:
	ROW2((R8), 0(CX), 8(CX), R14, R9, R10, Z20, Z21, Z10, Z11, Z13, Z14, Z0, Z1, Z3, Z4, X0, X3)
	ADDQ $8, R8
	DECQ R11
	JNZ  nrow1

	FOLD2(R9, R10, Z0, Z1, Z3, Z4, Z6)
	CARRY2(Z0, Z1, Z6, Z7)
	MOVQ      z+0(FP), DI
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z31, 128(DI)
	VZEROUPPER
	RET

// func montMulIFMA2(z, x, y, m *[2]montNat, k0 *[2]uint64, limbs int)
//
// montMulIFMA for two streams at once: z[s] = x[s]·y[s]·2^(-52·limbs)
// mod m[s] for s = 0, 1, both moduli of the same limb count.
TEXT ·montMulIFMA2(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), R8
	MOVQ m+24(FP), CX
	MOVQ k0+32(FP), DI
	MOVQ limbs+40(FP), R11
	SETUP
	CMPQ R11, $16
	JLE  narrow2
	LOAD(0, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, R9, R10)
	LOAD(192, Z18, Z19, Z22, Z23, Z24, Z25, Z6, Z7, Z8, Z9, Z16, Z17, R14, R15)

row2:
	ROW((R8), 0(CX), 8(CX), 0(DI), R9, R10, Z20, Z21, Z10, Z11, Z12, Z13, Z14, Z15, Z0, Z1, Z2, Z3, Z4, Z5, X0, X3)
	ROW(192(R8), 192(CX), 200(CX), 8(DI), R14, R15, Z26, Z27, Z18, Z19, Z22, Z23, Z24, Z25, Z6, Z7, Z8, Z9, Z16, Z17, X6, X9)
	ADDQ $8, R8
	DECQ R11
	JNZ  row2

	FOLD(R9, R10, Z0, Z1, Z2, Z3, Z4, Z5, Z20)
	FOLD(R14, R15, Z6, Z7, Z8, Z9, Z16, Z17, Z20)
	CARRY(Z0, Z1, Z2, Z20, Z21, Z26)
	CARRY(Z6, Z7, Z8, Z20, Z21, Z26)
	MOVQ      z+0(FP), DI
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z6, 192(DI)
	VMOVDQU64 Z7, 256(DI)
	VMOVDQU64 Z8, 320(DI)
	VZEROUPPER
	RET

narrow2:
	LOAD2(0, Z10, Z11, Z13, Z14, Z0, Z1, Z3, Z4, R9, R10)
	LOAD2(192, Z18, Z19, Z23, Z24, Z6, Z7, Z9, Z16, R14, R15)

nrow2:
	ROW2((R8), 0(CX), 8(CX), 0(DI), R9, R10, Z20, Z21, Z10, Z11, Z13, Z14, Z0, Z1, Z3, Z4, X0, X3)
	ROW2(192(R8), 192(CX), 200(CX), 8(DI), R14, R15, Z26, Z27, Z18, Z19, Z23, Z24, Z6, Z7, Z9, Z16, X6, X9)
	ADDQ $8, R8
	DECQ R11
	JNZ  nrow2

	FOLD2(R9, R10, Z0, Z1, Z3, Z4, Z20)
	FOLD2(R14, R15, Z6, Z7, Z9, Z16, Z20)
	CARRY2(Z0, Z1, Z20, Z21)
	CARRY2(Z6, Z7, Z20, Z21)
	MOVQ      z+0(FP), DI
	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z31, 128(DI)
	VMOVDQU64 Z6, 192(DI)
	VMOVDQU64 Z7, 256(DI)
	VMOVDQU64 Z31, 320(DI)
	VZEROUPPER
	RET

// func montSelectIFMA(z *montNat, tab *[16]montNat, idx uint64)
//
// z = tab[idx] (idx < 16), reading all sixteen entries, three ZMM loads
// each, and keeping one by a VPCMPEQQ mask.
TEXT ·montSelectIFMA(SB), NOSPLIT, $0-24
	MOVQ         z+0(FP), DI
	MOVQ         tab+8(FP), SI
	MOVQ         idx+16(FP), AX
	VPBROADCASTQ AX, Z31
	VPXORQ       Z30, Z30, Z30
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z29
	VPXORQ       Z0, Z0, Z0
	VPXORQ       Z1, Z1, Z1
	VPXORQ       Z2, Z2, Z2
	MOVQ         $16, CX

entry:
	VPCMPEQQ  Z31, Z30, K1
	VMOVDQU64 0(SI), Z3
	VMOVDQU64 64(SI), Z4
	VMOVDQU64 128(SI), Z5
	VMOVDQA64 Z3, K1, Z0
	VMOVDQA64 Z4, K1, Z1
	VMOVDQA64 Z5, K1, Z2
	VPADDQ    Z29, Z30, Z30
	ADDQ      $192, SI
	DECQ      CX
	JNZ       entry

	VMOVDQU64 Z0, 0(DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VZEROUPPER
	RET

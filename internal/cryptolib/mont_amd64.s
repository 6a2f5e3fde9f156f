// The MULX Montgomery kernel under DHGroup and the RSA keys, for the
// CPUs and widths the IFMA kernel (mont_ifma_amd64.s) does not serve, and
// the CPUID probe that selects it: a product (montMulN), a squaring
// (montSqrN) and a masked table read (montSelect) for moduli of N = 8, 12
// and 16 words, built on MULX (BMI2) and two independent carry chains,
// ADCX on CF and ADOX on OF.
//
// The product and the squaring keep their accumulator T in a 2N-word
// frame and walk it with DI. A product runs N rows; row i adds x·y[i]
// into T[i..i+N-1], then m·q with q = T[i]·k0 mod 2^64, which clears
// T[i], and writes the two passes' carries into T[i+N] (CIOS: product and
// reduction fused per row). A squaring forms the N(N-1)/2 cross products
// once, doubles them while it adds the N squares on the diagonal, then
// reduces in N rows of m·q. A reduction row's q waits on the row before
// it, so T[i] travels in R13 rather than through the frame. Both end with
// one subtraction of m, kept or undone by CMOV on the final borrow; R10
// holds the carry bit above T's top word.
//
// Constant time: the row and word counts depend on N alone, so no branch
// and no load or store address depends on an operand, the exponent digit
// montSelect is given, or the outcome of the final subtraction.

#include "textflag.h"

// MADD adds src[j]·DX into T[j] (T at DI). The low half joins the CF chain
// with hp, the previous word's high half, then the OF chain with T[j]; the
// high half is left in hn for the next word.
#define MADD(j, src, hp, hn) \
	MULXQ (8*j)(src), AX, hn; \
	ADCXQ hp, AX; \
	ADOXQ (8*j)(DI), AX; \
	MOVQ  AX, (8*j)(DI)

// CLOSE folds both chains' last carries into the high half h (R11 is 0).
#define CLOSE(h) \
	ADCXQ R11, h; \
	ADOXQ R11, h

// DIAG doubles T[2i] and T[2i+1] on the CF chain and adds x[i]² into them
// on the OF chain (T at DI, x at SI).
#define DIAG(i) \
	MOVQ  (8*i)(SI), DX; \
	MULXQ DX, AX, BX; \
	MOVQ  (16*i)(DI), R12; \
	MOVQ  (16*i+8)(DI), R13; \
	ADCXQ R12, R12; \
	ADCXQ R13, R13; \
	ADOXQ AX, R12; \
	ADOXQ BX, R13; \
	MOVQ  R12, (16*i)(DI); \
	MOVQ  R13, (16*i+8)(DI)

// SUBM writes T[j] - m[j] - CF to z[j] (T at DI, m at CX, z at R8).
#define SUBM(j) \
	MOVQ  (8*j)(DI), AX; \
	SBBQ  (8*j)(CX), AX; \
	MOVQ  AX, (8*j)(R8)

// KEEP puts T[j] back into z[j] when CF is set: the subtraction borrowed.
#define KEEP(j) \
	MOVQ    (8*j)(R8), AX; \
	CMOVQCS (8*j)(DI), AX; \
	MOVQ    AX, (8*j)(R8)

// func montMul8(z, x, y, m *montNat, k0 uint64)
//
// z = x·y·2^-512 mod m, for x, y < m; z may alias x or y.
TEXT ·montMul8(SB), NOSPLIT, $128-40
	MOVQ  x+8(FP), SI
	MOVQ  y+16(FP), R8
	MOVQ  m+24(FP), CX
	MOVQ  k0+32(FP), R14
	LEAQ  (SP), DI
	XORQ  R10, R10
	XORQ  R13, R13
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVQ  $8, R9

mul8row:
	// T += x·y[i]. T[i] lives in R13, not in the frame; the carry word
	// goes to T[i+N].
	MOVQ  (R8), DX
	XORQ  R11, R11
	MULXQ (SI), AX, BX
	ADOXQ R13, AX
	MOVQ  AX, R13
	MADD(1, SI, BX, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)

	// T += m·q, which clears T[i]; T[i+1] stays in R13 for the next row.
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 64(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	LEAQ  8(R8), R8
	DECQ  R9
	JNZ  mul8row

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	RET

// func montSqr8(z, x, m *montNat, k0 uint64)
//
// z = x²·2^-512 mod m, for x < m; z may alias x.
TEXT ·montSqr8(SB), NOSPLIT, $128-32
	MOVQ  x+8(FP), SI
	MOVQ  m+16(FP), CX
	MOVQ  k0+24(FP), R14
	LEAQ  (SP), DI
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVOU X0, 64(DI)
	MOVOU X0, 80(DI)
	MOVOU X0, 96(DI)
	MOVOU X0, 112(DI)

	// Cross products: row i adds x[i]·x[i+1..] at T[2i+1..] (DI at T[i]).
	MOVQ  0(SI), DX
	XORQ  R11, R11
	MADD(1, SI, R11, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  8(SI), DX
	XORQ  R11, R11
	MADD(2, SI, R11, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  16(SI), DX
	XORQ  R11, R11
	MADD(3, SI, R11, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  24(SI), DX
	XORQ  R11, R11
	MADD(4, SI, R11, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  32(SI), DX
	XORQ  R11, R11
	MADD(5, SI, R11, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  40(SI), DX
	XORQ  R11, R11
	MADD(6, SI, R11, BX)
	MADD(7, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI
	MOVQ  48(SI), DX
	XORQ  R11, R11
	MADD(7, SI, R11, R12)
	CLOSE(R12)
	MOVQ  R12, 64(DI)
	LEAQ  8(DI), DI

	// T = 2T + the squares x[i]².
	LEAQ  (SP), DI
	XORQ  R11, R11
	DIAG(0)
	DIAG(1)
	DIAG(2)
	DIAG(3)
	DIAG(4)
	DIAG(5)
	DIAG(6)
	DIAG(7)

	XORQ  R10, R10
	MOVQ  (DI), R13
	MOVQ  $8, R9

sqr8red:
	// T += m·q, which clears T[i] (in R13); the carry word joins T[i+N].
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 64(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	DECQ  R9
	JNZ  sqr8red

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	RET

// func montMul12(z, x, y, m *montNat, k0 uint64)
//
// z = x·y·2^-768 mod m, for x, y < m; z may alias x or y.
TEXT ·montMul12(SB), NOSPLIT, $192-40
	MOVQ  x+8(FP), SI
	MOVQ  y+16(FP), R8
	MOVQ  m+24(FP), CX
	MOVQ  k0+32(FP), R14
	LEAQ  (SP), DI
	XORQ  R10, R10
	XORQ  R13, R13
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVOU X0, 64(DI)
	MOVOU X0, 80(DI)
	MOVQ  $12, R9

mul12row:
	// T += x·y[i]. T[i] lives in R13, not in the frame; the carry word
	// goes to T[i+N].
	MOVQ  (R8), DX
	XORQ  R11, R11
	MULXQ (SI), AX, BX
	ADOXQ R13, AX
	MOVQ  AX, R13
	MADD(1, SI, BX, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)

	// T += m·q, which clears T[i]; T[i+1] stays in R13 for the next row.
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	MADD(8, CX, R12, BX)
	MADD(9, CX, BX, R12)
	MADD(10, CX, R12, BX)
	MADD(11, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 96(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	LEAQ  8(R8), R8
	DECQ  R9
	JNZ  mul12row

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SUBM(8)
	SUBM(9)
	SUBM(10)
	SUBM(11)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	KEEP(8)
	KEEP(9)
	KEEP(10)
	KEEP(11)
	RET

// func montSqr12(z, x, m *montNat, k0 uint64)
//
// z = x²·2^-768 mod m, for x < m; z may alias x.
TEXT ·montSqr12(SB), NOSPLIT, $192-32
	MOVQ  x+8(FP), SI
	MOVQ  m+16(FP), CX
	MOVQ  k0+24(FP), R14
	LEAQ  (SP), DI
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVOU X0, 64(DI)
	MOVOU X0, 80(DI)
	MOVOU X0, 96(DI)
	MOVOU X0, 112(DI)
	MOVOU X0, 128(DI)
	MOVOU X0, 144(DI)
	MOVOU X0, 160(DI)
	MOVOU X0, 176(DI)

	// Cross products: row i adds x[i]·x[i+1..] at T[2i+1..] (DI at T[i]).
	MOVQ  0(SI), DX
	XORQ  R11, R11
	MADD(1, SI, R11, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  8(SI), DX
	XORQ  R11, R11
	MADD(2, SI, R11, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  16(SI), DX
	XORQ  R11, R11
	MADD(3, SI, R11, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  24(SI), DX
	XORQ  R11, R11
	MADD(4, SI, R11, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  32(SI), DX
	XORQ  R11, R11
	MADD(5, SI, R11, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  40(SI), DX
	XORQ  R11, R11
	MADD(6, SI, R11, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  48(SI), DX
	XORQ  R11, R11
	MADD(7, SI, R11, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  56(SI), DX
	XORQ  R11, R11
	MADD(8, SI, R11, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  64(SI), DX
	XORQ  R11, R11
	MADD(9, SI, R11, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  72(SI), DX
	XORQ  R11, R11
	MADD(10, SI, R11, BX)
	MADD(11, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI
	MOVQ  80(SI), DX
	XORQ  R11, R11
	MADD(11, SI, R11, R12)
	CLOSE(R12)
	MOVQ  R12, 96(DI)
	LEAQ  8(DI), DI

	// T = 2T + the squares x[i]².
	LEAQ  (SP), DI
	XORQ  R11, R11
	DIAG(0)
	DIAG(1)
	DIAG(2)
	DIAG(3)
	DIAG(4)
	DIAG(5)
	DIAG(6)
	DIAG(7)
	DIAG(8)
	DIAG(9)
	DIAG(10)
	DIAG(11)

	XORQ  R10, R10
	MOVQ  (DI), R13
	MOVQ  $12, R9

sqr12red:
	// T += m·q, which clears T[i] (in R13); the carry word joins T[i+N].
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	MADD(8, CX, R12, BX)
	MADD(9, CX, BX, R12)
	MADD(10, CX, R12, BX)
	MADD(11, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 96(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	DECQ  R9
	JNZ  sqr12red

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SUBM(8)
	SUBM(9)
	SUBM(10)
	SUBM(11)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	KEEP(8)
	KEEP(9)
	KEEP(10)
	KEEP(11)
	RET

// func montMul16(z, x, y, m *montNat, k0 uint64)
//
// z = x·y·2^-1024 mod m, for x, y < m; z may alias x or y.
TEXT ·montMul16(SB), NOSPLIT, $256-40
	MOVQ  x+8(FP), SI
	MOVQ  y+16(FP), R8
	MOVQ  m+24(FP), CX
	MOVQ  k0+32(FP), R14
	LEAQ  (SP), DI
	XORQ  R10, R10
	XORQ  R13, R13
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVOU X0, 64(DI)
	MOVOU X0, 80(DI)
	MOVOU X0, 96(DI)
	MOVOU X0, 112(DI)
	MOVQ  $16, R9

mul16row:
	// T += x·y[i]. T[i] lives in R13, not in the frame; the carry word
	// goes to T[i+N].
	MOVQ  (R8), DX
	XORQ  R11, R11
	MULXQ (SI), AX, BX
	ADOXQ R13, AX
	MOVQ  AX, R13
	MADD(1, SI, BX, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)

	// T += m·q, which clears T[i]; T[i+1] stays in R13 for the next row.
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	MADD(8, CX, R12, BX)
	MADD(9, CX, BX, R12)
	MADD(10, CX, R12, BX)
	MADD(11, CX, BX, R12)
	MADD(12, CX, R12, BX)
	MADD(13, CX, BX, R12)
	MADD(14, CX, R12, BX)
	MADD(15, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 128(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	LEAQ  8(R8), R8
	DECQ  R9
	JNZ  mul16row

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SUBM(8)
	SUBM(9)
	SUBM(10)
	SUBM(11)
	SUBM(12)
	SUBM(13)
	SUBM(14)
	SUBM(15)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	KEEP(8)
	KEEP(9)
	KEEP(10)
	KEEP(11)
	KEEP(12)
	KEEP(13)
	KEEP(14)
	KEEP(15)
	RET

// func montSqr16(z, x, m *montNat, k0 uint64)
//
// z = x²·2^-1024 mod m, for x < m; z may alias x.
TEXT ·montSqr16(SB), NOSPLIT, $256-32
	MOVQ  x+8(FP), SI
	MOVQ  m+16(FP), CX
	MOVQ  k0+24(FP), R14
	LEAQ  (SP), DI
	PXOR  X0, X0
	MOVOU X0, 0(DI)
	MOVOU X0, 16(DI)
	MOVOU X0, 32(DI)
	MOVOU X0, 48(DI)
	MOVOU X0, 64(DI)
	MOVOU X0, 80(DI)
	MOVOU X0, 96(DI)
	MOVOU X0, 112(DI)
	MOVOU X0, 128(DI)
	MOVOU X0, 144(DI)
	MOVOU X0, 160(DI)
	MOVOU X0, 176(DI)
	MOVOU X0, 192(DI)
	MOVOU X0, 208(DI)
	MOVOU X0, 224(DI)
	MOVOU X0, 240(DI)

	// Cross products: row i adds x[i]·x[i+1..] at T[2i+1..] (DI at T[i]).
	MOVQ  0(SI), DX
	XORQ  R11, R11
	MADD(1, SI, R11, R12)
	MADD(2, SI, R12, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  8(SI), DX
	XORQ  R11, R11
	MADD(2, SI, R11, BX)
	MADD(3, SI, BX, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  16(SI), DX
	XORQ  R11, R11
	MADD(3, SI, R11, R12)
	MADD(4, SI, R12, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  24(SI), DX
	XORQ  R11, R11
	MADD(4, SI, R11, BX)
	MADD(5, SI, BX, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  32(SI), DX
	XORQ  R11, R11
	MADD(5, SI, R11, R12)
	MADD(6, SI, R12, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  40(SI), DX
	XORQ  R11, R11
	MADD(6, SI, R11, BX)
	MADD(7, SI, BX, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  48(SI), DX
	XORQ  R11, R11
	MADD(7, SI, R11, R12)
	MADD(8, SI, R12, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  56(SI), DX
	XORQ  R11, R11
	MADD(8, SI, R11, BX)
	MADD(9, SI, BX, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  64(SI), DX
	XORQ  R11, R11
	MADD(9, SI, R11, R12)
	MADD(10, SI, R12, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  72(SI), DX
	XORQ  R11, R11
	MADD(10, SI, R11, BX)
	MADD(11, SI, BX, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  80(SI), DX
	XORQ  R11, R11
	MADD(11, SI, R11, R12)
	MADD(12, SI, R12, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  88(SI), DX
	XORQ  R11, R11
	MADD(12, SI, R11, BX)
	MADD(13, SI, BX, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  96(SI), DX
	XORQ  R11, R11
	MADD(13, SI, R11, R12)
	MADD(14, SI, R12, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  104(SI), DX
	XORQ  R11, R11
	MADD(14, SI, R11, BX)
	MADD(15, SI, BX, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI
	MOVQ  112(SI), DX
	XORQ  R11, R11
	MADD(15, SI, R11, R12)
	CLOSE(R12)
	MOVQ  R12, 128(DI)
	LEAQ  8(DI), DI

	// T = 2T + the squares x[i]².
	LEAQ  (SP), DI
	XORQ  R11, R11
	DIAG(0)
	DIAG(1)
	DIAG(2)
	DIAG(3)
	DIAG(4)
	DIAG(5)
	DIAG(6)
	DIAG(7)
	DIAG(8)
	DIAG(9)
	DIAG(10)
	DIAG(11)
	DIAG(12)
	DIAG(13)
	DIAG(14)
	DIAG(15)

	XORQ  R10, R10
	MOVQ  (DI), R13
	MOVQ  $16, R9

sqr16red:
	// T += m·q, which clears T[i] (in R13); the carry word joins T[i+N].
	MOVQ  R13, DX
	IMULQ R14, DX
	XORQ  R11, R11
	MULXQ (CX), AX, BX
	ADOXQ R13, AX
	MADD(1, CX, BX, R12)
	MOVQ  AX, R13
	MADD(2, CX, R12, BX)
	MADD(3, CX, BX, R12)
	MADD(4, CX, R12, BX)
	MADD(5, CX, BX, R12)
	MADD(6, CX, R12, BX)
	MADD(7, CX, BX, R12)
	MADD(8, CX, R12, BX)
	MADD(9, CX, BX, R12)
	MADD(10, CX, R12, BX)
	MADD(11, CX, BX, R12)
	MADD(12, CX, R12, BX)
	MADD(13, CX, BX, R12)
	MADD(14, CX, R12, BX)
	MADD(15, CX, BX, R12)
	CLOSE(R12)
	ADDQ  R10, R12
	SETCS R10B
	ADDQ  R12, 128(DI)
	ADCQ  $0, R10
	LEAQ  8(DI), DI
	DECQ  R9
	JNZ  sqr16red

	// z = T - m unless that borrows past the carry word R10.
	MOVQ  z+0(FP), R8
	CLC
	SUBM(0)
	SUBM(1)
	SUBM(2)
	SUBM(3)
	SUBM(4)
	SUBM(5)
	SUBM(6)
	SUBM(7)
	SUBM(8)
	SUBM(9)
	SUBM(10)
	SUBM(11)
	SUBM(12)
	SUBM(13)
	SUBM(14)
	SUBM(15)
	SBBQ  $0, R10
	KEEP(0)
	KEEP(1)
	KEEP(2)
	KEEP(3)
	KEEP(4)
	KEEP(5)
	KEEP(6)
	KEEP(7)
	KEEP(8)
	KEEP(9)
	KEEP(10)
	KEEP(11)
	KEEP(12)
	KEEP(13)
	KEEP(14)
	KEEP(15)
	RET

// func montSelect(z *montNat, tab *[16]montNat, n int, idx uint64)
//
// z = tab[idx] over the first n words (n a multiple of 4, idx < 16),
// reading all sixteen entries and keeping one by a PCMPEQL mask, four
// words at a time.
TEXT ·montSelect(SB), NOSPLIT, $0-32
	MOVQ    z+0(FP), DI
	MOVQ    tab+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVQ    idx+24(FP), AX
	MOVQ    AX, X15
	PSHUFD  $0, X15, X15
	PCMPEQL X12, X12

chunk:
	PXOR X0, X0
	PXOR X1, X1
	PXOR X14, X14
	MOVQ SI, BX
	MOVQ $16, DX

entry:
	MOVOU   X14, X13
	PCMPEQL X15, X13
	MOVOU   (BX), X2
	MOVOU   16(BX), X3
	PAND    X13, X2
	PAND    X13, X3
	POR     X2, X0
	POR     X3, X1
	PSUBL   X12, X14
	ADDQ    $192, BX
	DECQ    DX
	JNZ     entry

	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	ADDQ  $32, SI
	ADDQ  $32, DI
	SUBQ  $4, CX
	JNZ   chunk
	RET

// func cpuHasBMI2ADX() bool
//
// MULX is BMI2 (CPUID leaf 7, EBX bit 8); ADCX and ADOX are ADX (bit 19).
TEXT ·cpuHasBMI2ADX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x80100, BX
	CMPL BX, $0x80100
	JNE  done
	MOVB $1, ret+0(FP)

done:
	RET

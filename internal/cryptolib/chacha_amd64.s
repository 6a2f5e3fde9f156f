// The ChaCha20 keystream kernels and the CPUID probes that select them
// (the Montgomery kernel is mont_amd64.s, Poly1305 poly1305_amd64.s): an
// AVX2 pass of eight blocks, and on AVX-512 a ZMM pass of sixteen blocks
// with an eight-block AVX-512VL pass for the tail. Constant time by
// construction: no branch, load address or shuffle index depends on key,
// nonce, counter or keystream — the only branches are the fixed
// ten-iteration round loops and the CPUID checks, and every shuffle
// mask and immediate is a constant.

#include "textflag.h"

// VPSHUFB masks rotating every 32-bit lane left by 16 and by 8 bits.
DATA chachaRot16<>+0(SB)/8, $0x0504070601000302
DATA chachaRot16<>+8(SB)/8, $0x0d0c0f0e09080b0a
DATA chachaRot16<>+16(SB)/8, $0x0504070601000302
DATA chachaRot16<>+24(SB)/8, $0x0d0c0f0e09080b0a
GLOBL chachaRot16<>(SB), RODATA|NOPTR, $32

DATA chachaRot8<>+0(SB)/8, $0x0605040702010003
DATA chachaRot8<>+8(SB)/8, $0x0e0d0c0f0a09080b
DATA chachaRot8<>+16(SB)/8, $0x0605040702010003
DATA chachaRot8<>+24(SB)/8, $0x0e0d0c0f0a09080b
GLOBL chachaRot8<>(SB), RODATA|NOPTR, $32

// Lane i computes block counter+i: the first 32 bytes serve the
// eight-block passes, all 64 the sixteen-block pass.
DATA chachaLanes<>+0(SB)/8, $0x0000000100000000
DATA chachaLanes<>+8(SB)/8, $0x0000000300000002
DATA chachaLanes<>+16(SB)/8, $0x0000000500000004
DATA chachaLanes<>+24(SB)/8, $0x0000000700000006
DATA chachaLanes<>+32(SB)/8, $0x0000000900000008
DATA chachaLanes<>+40(SB)/8, $0x0000000b0000000a
DATA chachaLanes<>+48(SB)/8, $0x0000000d0000000c
DATA chachaLanes<>+56(SB)/8, $0x0000000f0000000e
GLOBL chachaLanes<>(SB), RODATA|NOPTR, $64

// QR2 is two independent ChaCha quarter rounds (RFC 8439 section 2.1)
// interleaved instruction by instruction; t0 and t1 are scratch.
#define QR2(a0, b0, c0, d0, t0, a1, b1, c1, d1, t1) \
	VPADDD b0, a0, a0; VPADDD b1, a1, a1; \
	VPXOR a0, d0, d0; VPXOR a1, d1, d1; \
	VPSHUFB chachaRot16<>(SB), d0, d0; VPSHUFB chachaRot16<>(SB), d1, d1; \
	VPADDD d0, c0, c0; VPADDD d1, c1, c1; \
	VPXOR c0, b0, b0; VPXOR c1, b1, b1; \
	VPSLLD $12, b0, t0; VPSLLD $12, b1, t1; \
	VPSRLD $20, b0, b0; VPSRLD $20, b1, b1; \
	VPOR t0, b0, b0; VPOR t1, b1, b1; \
	VPADDD b0, a0, a0; VPADDD b1, a1, a1; \
	VPXOR a0, d0, d0; VPXOR a1, d1, d1; \
	VPSHUFB chachaRot8<>(SB), d0, d0; VPSHUFB chachaRot8<>(SB), d1, d1; \
	VPADDD d0, c0, c0; VPADDD d1, c1, c1; \
	VPXOR c0, b0, b0; VPXOR c1, b1, b1; \
	VPSLLD $7, b0, t0; VPSLLD $7, b1, t1; \
	VPSRLD $25, b0, b0; VPSRLD $25, b1, b1; \
	VPOR t0, b0, b0; VPOR t1, b1, b1

// FEED adds state word i (broadcast) back into its working register.
#define FEED(i, r) \
	VPBROADCASTD (4*i)(AX), Y15; VPADDD Y15, r, r

// TRANSPOSE turns Y0..Y7 (word w of every lane) into eight rows (words
// w..w+7 of one lane) and stores row j at off+64*j of out; Y8..Y15 are
// scratch.
#define TRANSPOSE(off) \
	VPUNPCKLDQ Y1, Y0, Y8; VPUNPCKHDQ Y1, Y0, Y9; \
	VPUNPCKLDQ Y3, Y2, Y10; VPUNPCKHDQ Y3, Y2, Y11; \
	VPUNPCKLDQ Y5, Y4, Y12; VPUNPCKHDQ Y5, Y4, Y13; \
	VPUNPCKLDQ Y7, Y6, Y14; VPUNPCKHDQ Y7, Y6, Y15; \
	VPUNPCKLQDQ Y10, Y8, Y0; VPUNPCKHQDQ Y10, Y8, Y1; \
	VPUNPCKLQDQ Y11, Y9, Y2; VPUNPCKHQDQ Y11, Y9, Y3; \
	VPUNPCKLQDQ Y14, Y12, Y4; VPUNPCKHQDQ Y14, Y12, Y5; \
	VPUNPCKLQDQ Y15, Y13, Y6; VPUNPCKHQDQ Y15, Y13, Y7; \
	VPERM2I128 $0x20, Y4, Y0, Y8; VPERM2I128 $0x31, Y4, Y0, Y12; \
	VPERM2I128 $0x20, Y5, Y1, Y9; VPERM2I128 $0x31, Y5, Y1, Y13; \
	VPERM2I128 $0x20, Y6, Y2, Y10; VPERM2I128 $0x31, Y6, Y2, Y14; \
	VPERM2I128 $0x20, Y7, Y3, Y11; VPERM2I128 $0x31, Y7, Y3, Y15; \
	VMOVDQU Y8, (off+0)(DI); VMOVDQU Y9, (off+64)(DI); \
	VMOVDQU Y10, (off+128)(DI); VMOVDQU Y11, (off+192)(DI); \
	VMOVDQU Y12, (off+256)(DI); VMOVDQU Y13, (off+320)(DI); \
	VMOVDQU Y14, (off+384)(DI); VMOVDQU Y15, (off+448)(DI)

// func chachaKeystream8(state *[16]uint32, out *[512]byte)
//
// Writes the eight 64-byte keystream blocks for counters state[12] …
// state[12]+7 (mod 2^32) to out. Each YMM register holds one state word
// for all eight blocks: x0–x7 in Y0–Y7, x12–x15 in Y8–Y11. x8–x11 take
// turns, two at a time, in Y12/Y13 and otherwise rest in the frame, which
// leaves Y14/Y15 free for the shift-shift-or rotates. The order of the
// quarter-round pairs is chosen so that a double round swaps them twice,
// not four times. The frame is eight 32-byte slots, aligned by hand.
TEXT ·chachaKeystream8(SB), NOSPLIT, $288-16
	MOVQ state+0(FP), AX
	MOVQ out+8(FP), DI
	LEAQ 31(SP), BX
	ANDQ $~31, BX

	VPBROADCASTD 0(AX), Y0
	VPBROADCASTD 4(AX), Y1
	VPBROADCASTD 8(AX), Y2
	VPBROADCASTD 12(AX), Y3
	VPBROADCASTD 16(AX), Y4
	VPBROADCASTD 20(AX), Y5
	VPBROADCASTD 24(AX), Y6
	VPBROADCASTD 28(AX), Y7
	VPBROADCASTD 32(AX), Y12
	VPBROADCASTD 36(AX), Y13
	VPBROADCASTD 40(AX), Y14
	VPBROADCASTD 44(AX), Y15
	VPBROADCASTD 48(AX), Y8
	VPBROADCASTD 52(AX), Y9
	VPBROADCASTD 56(AX), Y10
	VPBROADCASTD 60(AX), Y11
	VPADDD chachaLanes<>(SB), Y8, Y8
	VMOVDQA Y14, 64(BX)
	VMOVDQA Y15, 96(BX)

	MOVQ $10, CX

rounds:
	QR2(Y0, Y4, Y12, Y8, Y14, Y1, Y5, Y13, Y9, Y15)   // columns 0, 1: x8, x9
	VMOVDQA Y12, 0(BX)
	VMOVDQA Y13, 32(BX)
	VMOVDQA 64(BX), Y12
	VMOVDQA 96(BX), Y13
	QR2(Y2, Y6, Y12, Y10, Y14, Y3, Y7, Y13, Y11, Y15) // columns 2, 3: x10, x11
	QR2(Y0, Y5, Y12, Y11, Y14, Y1, Y6, Y13, Y8, Y15)  // diagonals 0, 1: x10, x11
	VMOVDQA Y12, 64(BX)
	VMOVDQA Y13, 96(BX)
	VMOVDQA 0(BX), Y12
	VMOVDQA 32(BX), Y13
	QR2(Y2, Y7, Y12, Y9, Y14, Y3, Y4, Y13, Y10, Y15)  // diagonals 2, 3: x8, x9
	DECQ CX
	JNZ  rounds

	// Feed-forward. Words 8..15 go to the frame so the first transpose
	// has eight scratch registers.
	FEED(8, Y12)
	FEED(9, Y13)
	VMOVDQA Y12, 0(BX)
	VMOVDQA Y13, 32(BX)
	VMOVDQA 64(BX), Y12
	VMOVDQA 96(BX), Y13
	FEED(10, Y12)
	FEED(11, Y13)
	VMOVDQA Y12, 64(BX)
	VMOVDQA Y13, 96(BX)
	FEED(12, Y8)
	VPADDD  chachaLanes<>(SB), Y8, Y8
	FEED(13, Y9)
	FEED(14, Y10)
	FEED(15, Y11)
	VMOVDQA Y8, 128(BX)
	VMOVDQA Y9, 160(BX)
	VMOVDQA Y10, 192(BX)
	VMOVDQA Y11, 224(BX)
	FEED(0, Y0)
	FEED(1, Y1)
	FEED(2, Y2)
	FEED(3, Y3)
	FEED(4, Y4)
	FEED(5, Y5)
	FEED(6, Y6)
	FEED(7, Y7)

	TRANSPOSE(0)
	VMOVDQA 0(BX), Y0
	VMOVDQA 32(BX), Y1
	VMOVDQA 64(BX), Y2
	VMOVDQA 96(BX), Y3
	VMOVDQA 128(BX), Y4
	VMOVDQA 160(BX), Y5
	VMOVDQA 192(BX), Y6
	VMOVDQA 224(BX), Y7
	TRANSPOSE(32)

	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the OS
// saves YMM state: OSXSAVE and AVX in leaf 1 ECX (bits 27, 28), then
// XCR0 bits 1 and 2 by XGETBV.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
done:
	RET

// QR4 is four independent quarter rounds interleaved instruction by
// instruction, with AVX-512's VPROLD for every rotate. The operands are
// all ZMM or all YMM registers; the YMM form is AVX-512VL.
#define QR4(a0, b0, c0, d0, a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3) \
	VPADDD b0, a0, a0; VPADDD b1, a1, a1; VPADDD b2, a2, a2; VPADDD b3, a3, a3; \
	VPXORD a0, d0, d0; VPXORD a1, d1, d1; VPXORD a2, d2, d2; VPXORD a3, d3, d3; \
	VPROLD $16, d0, d0; VPROLD $16, d1, d1; VPROLD $16, d2, d2; VPROLD $16, d3, d3; \
	VPADDD d0, c0, c0; VPADDD d1, c1, c1; VPADDD d2, c2, c2; VPADDD d3, c3, c3; \
	VPXORD c0, b0, b0; VPXORD c1, b1, b1; VPXORD c2, b2, b2; VPXORD c3, b3, b3; \
	VPROLD $12, b0, b0; VPROLD $12, b1, b1; VPROLD $12, b2, b2; VPROLD $12, b3, b3; \
	VPADDD b0, a0, a0; VPADDD b1, a1, a1; VPADDD b2, a2, a2; VPADDD b3, a3, a3; \
	VPXORD a0, d0, d0; VPXORD a1, d1, d1; VPXORD a2, d2, d2; VPXORD a3, d3, d3; \
	VPROLD $8, d0, d0; VPROLD $8, d1, d1; VPROLD $8, d2, d2; VPROLD $8, d3, d3; \
	VPADDD d0, c0, c0; VPADDD d1, c1, c1; VPADDD d2, c2, c2; VPADDD d3, c3, c3; \
	VPXORD c0, b0, b0; VPXORD c1, b1, b1; VPXORD c2, b2, b2; VPXORD c3, b3, b3; \
	VPROLD $7, b0, b0; VPROLD $7, b1, b1; VPROLD $7, b2, b2; VPROLD $7, b3, b3

// DOUBLEROUND is one column round and one diagonal round over x0–x15 in
// registers R0–R15 of one width.
#define DOUBLEROUND(R0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, R13, R14, R15) \
	QR4(R0, R4, R8, R12, R1, R5, R9, R13, R2, R6, R10, R14, R3, R7, R11, R15); \
	QR4(R0, R5, R10, R15, R1, R6, R11, R12, R2, R7, R8, R13, R3, R4, R9, R14)

// TRANSPOSE4 is a 4×4 dword transpose inside every 128-bit lane: from
// a0..a3 (word w of every block) to t0..t3, whose lane L holds the four
// words of block 4L+k (k = 0…3). u0..u3 are scratch.
#define TRANSPOSE4(a0, a1, a2, a3, u0, u1, u2, u3, t0, t1, t2, t3) \
	VPUNPCKLDQ a1, a0, u0; VPUNPCKHDQ a1, a0, u1; \
	VPUNPCKLDQ a3, a2, u2; VPUNPCKHDQ a3, a2, u3; \
	VPUNPCKLQDQ u2, u0, t0; VPUNPCKHQDQ u2, u0, t1; \
	VPUNPCKLQDQ u3, u1, t2; VPUNPCKHQDQ u3, u1, t3

// STORE16 gathers the four 128-bit lanes of t0..t3 (words 0–3, 4–7,
// 8–11 and 12–15 of blocks k, k+4, k+8, k+12, one block per lane) into
// whole blocks and stores block 4L+k at 64·(4L+k) of out (DI).
#define STORE16(k, t0, t1, t2, t3) \
	VSHUFI32X4 $0x44, t1, t0, Z24; VSHUFI32X4 $0xee, t1, t0, Z25; \
	VSHUFI32X4 $0x44, t3, t2, Z26; VSHUFI32X4 $0xee, t3, t2, Z27; \
	VSHUFI32X4 $0x88, Z26, Z24, Z28; VSHUFI32X4 $0xdd, Z26, Z24, Z29; \
	VSHUFI32X4 $0x88, Z27, Z25, Z30; VSHUFI32X4 $0xdd, Z27, Z25, Z31; \
	VMOVDQU32 Z28, (64*k)(DI); VMOVDQU32 Z29, (64*(k+4))(DI); \
	VMOVDQU32 Z30, (64*(k+8))(DI); VMOVDQU32 Z31, (64*(k+12))(DI)

// func chachaKeystream16(state *[16]uint32, out *[1024]byte)
//
// Writes the sixteen keystream blocks for counters state[12] …
// state[12]+15 (mod 2^32) to out. Each ZMM register holds one state word
// for all sixteen blocks: x0–x15 in Z0–Z15, their inputs in Z16–Z31 for
// the feed-forward, so nothing spills.
TEXT ·chachaKeystream16(SB), NOSPLIT, $0-16
	MOVQ state+0(FP), AX
	MOVQ out+8(FP), DI

	VPBROADCASTD 0(AX), Z16
	VPBROADCASTD 4(AX), Z17
	VPBROADCASTD 8(AX), Z18
	VPBROADCASTD 12(AX), Z19
	VPBROADCASTD 16(AX), Z20
	VPBROADCASTD 20(AX), Z21
	VPBROADCASTD 24(AX), Z22
	VPBROADCASTD 28(AX), Z23
	VPBROADCASTD 32(AX), Z24
	VPBROADCASTD 36(AX), Z25
	VPBROADCASTD 40(AX), Z26
	VPBROADCASTD 44(AX), Z27
	VPBROADCASTD 48(AX), Z28
	VPBROADCASTD 52(AX), Z29
	VPBROADCASTD 56(AX), Z30
	VPBROADCASTD 60(AX), Z31
	VPADDD chachaLanes<>(SB), Z28, Z28
	VMOVDQA32 Z16, Z0
	VMOVDQA32 Z17, Z1
	VMOVDQA32 Z18, Z2
	VMOVDQA32 Z19, Z3
	VMOVDQA32 Z20, Z4
	VMOVDQA32 Z21, Z5
	VMOVDQA32 Z22, Z6
	VMOVDQA32 Z23, Z7
	VMOVDQA32 Z24, Z8
	VMOVDQA32 Z25, Z9
	VMOVDQA32 Z26, Z10
	VMOVDQA32 Z27, Z11
	VMOVDQA32 Z28, Z12
	VMOVDQA32 Z29, Z13
	VMOVDQA32 Z30, Z14
	VMOVDQA32 Z31, Z15

	MOVQ $10, CX

rounds16:
	DOUBLEROUND(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	DECQ CX
	JNZ  rounds16

	VPADDD Z16, Z0, Z0
	VPADDD Z17, Z1, Z1
	VPADDD Z18, Z2, Z2
	VPADDD Z19, Z3, Z3
	VPADDD Z20, Z4, Z4
	VPADDD Z21, Z5, Z5
	VPADDD Z22, Z6, Z6
	VPADDD Z23, Z7, Z7
	VPADDD Z24, Z8, Z8
	VPADDD Z25, Z9, Z9
	VPADDD Z26, Z10, Z10
	VPADDD Z27, Z11, Z11
	VPADDD Z28, Z12, Z12
	VPADDD Z29, Z13, Z13
	VPADDD Z30, Z14, Z14
	VPADDD Z31, Z15, Z15

	TRANSPOSE4(Z0, Z1, Z2, Z3, Z16, Z17, Z18, Z19, Z0, Z1, Z2, Z3)
	TRANSPOSE4(Z4, Z5, Z6, Z7, Z16, Z17, Z18, Z19, Z4, Z5, Z6, Z7)
	TRANSPOSE4(Z8, Z9, Z10, Z11, Z16, Z17, Z18, Z19, Z8, Z9, Z10, Z11)
	TRANSPOSE4(Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z12, Z13, Z14, Z15)
	STORE16(0, Z0, Z4, Z8, Z12)
	STORE16(1, Z1, Z5, Z9, Z13)
	STORE16(2, Z2, Z6, Z10, Z14)
	STORE16(3, Z3, Z7, Z11, Z15)

	VZEROUPPER
	RET

// STORE8 gathers the two 128-bit lanes of t0..t3 (words 0–3, 4–7, 8–11
// and 12–15 of blocks k and k+4) into whole blocks and stores block k at
// 64·k and block k+4 at 64·(k+4) of out (DI).
#define STORE8(k, t0, t1, t2, t3) \
	VSHUFI32X4 $0, t1, t0, Y24; VSHUFI32X4 $0, t3, t2, Y25; \
	VSHUFI32X4 $3, t1, t0, Y26; VSHUFI32X4 $3, t3, t2, Y27; \
	VMOVDQU32 Y24, (64*k)(DI); VMOVDQU32 Y25, (64*k+32)(DI); \
	VMOVDQU32 Y26, (64*(k+4))(DI); VMOVDQU32 Y27, (64*(k+4)+32)(DI)

// func chachaKeystream8VL(state *[16]uint32, out *[512]byte)
//
// chachaKeystream8 on AVX-512VL: the same eight blocks, with x0–x15 in
// Y0–Y15, their inputs in Y16–Y31, and VPROLD for every rotate — no
// spills and no shift pairs.
TEXT ·chachaKeystream8VL(SB), NOSPLIT, $0-16
	MOVQ state+0(FP), AX
	MOVQ out+8(FP), DI

	VPBROADCASTD 0(AX), Y16
	VPBROADCASTD 4(AX), Y17
	VPBROADCASTD 8(AX), Y18
	VPBROADCASTD 12(AX), Y19
	VPBROADCASTD 16(AX), Y20
	VPBROADCASTD 20(AX), Y21
	VPBROADCASTD 24(AX), Y22
	VPBROADCASTD 28(AX), Y23
	VPBROADCASTD 32(AX), Y24
	VPBROADCASTD 36(AX), Y25
	VPBROADCASTD 40(AX), Y26
	VPBROADCASTD 44(AX), Y27
	VPBROADCASTD 48(AX), Y28
	VPBROADCASTD 52(AX), Y29
	VPBROADCASTD 56(AX), Y30
	VPBROADCASTD 60(AX), Y31
	VPADDD chachaLanes<>(SB), Y28, Y28
	VMOVDQA32 Y16, Y0
	VMOVDQA32 Y17, Y1
	VMOVDQA32 Y18, Y2
	VMOVDQA32 Y19, Y3
	VMOVDQA32 Y20, Y4
	VMOVDQA32 Y21, Y5
	VMOVDQA32 Y22, Y6
	VMOVDQA32 Y23, Y7
	VMOVDQA32 Y24, Y8
	VMOVDQA32 Y25, Y9
	VMOVDQA32 Y26, Y10
	VMOVDQA32 Y27, Y11
	VMOVDQA32 Y28, Y12
	VMOVDQA32 Y29, Y13
	VMOVDQA32 Y30, Y14
	VMOVDQA32 Y31, Y15

	MOVQ $10, CX

rounds8:
	DOUBLEROUND(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	DECQ CX
	JNZ  rounds8

	VPADDD Y16, Y0, Y0
	VPADDD Y17, Y1, Y1
	VPADDD Y18, Y2, Y2
	VPADDD Y19, Y3, Y3
	VPADDD Y20, Y4, Y4
	VPADDD Y21, Y5, Y5
	VPADDD Y22, Y6, Y6
	VPADDD Y23, Y7, Y7
	VPADDD Y24, Y8, Y8
	VPADDD Y25, Y9, Y9
	VPADDD Y26, Y10, Y10
	VPADDD Y27, Y11, Y11
	VPADDD Y28, Y12, Y12
	VPADDD Y29, Y13, Y13
	VPADDD Y30, Y14, Y14
	VPADDD Y31, Y15, Y15

	TRANSPOSE4(Y0, Y1, Y2, Y3, Y16, Y17, Y18, Y19, Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7, Y16, Y17, Y18, Y19, Y4, Y5, Y6, Y7)
	TRANSPOSE4(Y8, Y9, Y10, Y11, Y16, Y17, Y18, Y19, Y8, Y9, Y10, Y11)
	TRANSPOSE4(Y12, Y13, Y14, Y15, Y16, Y17, Y18, Y19, Y12, Y13, Y14, Y15)
	STORE8(0, Y0, Y4, Y8, Y12)
	STORE8(1, Y1, Y5, Y9, Y13)
	STORE8(2, Y2, Y6, Y10, Y14)
	STORE8(3, Y3, Y7, Y11, Y15)

	VZEROUPPER
	RET

// func cpuAVX512() uint32
//
// Returns CPUID leaf 7's EBX feature bits (AVX-512F is bit 16, IFMA bit
// 21, VL bit 31) when the OS saves AVX-512 state, and 0 when it does
// not: OSXSAVE in leaf 1 ECX (bit 27), then XCR0 bits 1, 2 (XMM, YMM)
// and 5–7 (opmask, the upper halves of ZMM0–15, ZMM16–31) by XGETBV.
TEXT ·cpuAVX512(SB), NOSPLIT, $0-4
	MOVL $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JZ   done512
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  done512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
done512:
	RET

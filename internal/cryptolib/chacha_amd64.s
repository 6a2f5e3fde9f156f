// The one assembly file in cryptolib: an AVX2 ChaCha20 keystream kernel
// and the CPUID probe that selects it. Constant time by construction:
// no branch, load address or shuffle index depends on key, nonce,
// counter or keystream — the only branches are the fixed ten-iteration
// round loop and the CPUID checks, and both VPSHUFB masks are constants.

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

// Lane i of the eight computes block counter+i.
DATA chachaLanes<>+0(SB)/8, $0x0000000100000000
DATA chachaLanes<>+8(SB)/8, $0x0000000300000002
DATA chachaLanes<>+16(SB)/8, $0x0000000500000004
DATA chachaLanes<>+24(SB)/8, $0x0000000700000006
GLOBL chachaLanes<>(SB), RODATA|NOPTR, $32

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

#include "textflag.h"

// The two lane kernels share everything but the per-cell arithmetic.
//
// Y0..Y3 hold s0..s3 of the four lanes and Y4 the words being filled.
// Each cell's four thresholds are loaded lane by lane into Y5 (R12, R13,
// BX, SI point at the lanes' slices, CX indexes the cell); a VPGATHERQQ
// form measured slower. R8..R11 point at the lanes' next destination
// words, DX counts the cells left and DI the cells left in this word.
// Y14 holds bit 63 of each lane.

// LANES_PROLOGUE loads the arguments, the four states and the lanes'
// pointers.
#define LANES_PROLOGUE \
	MOVQ     state+0(FP), AX; \
	MOVQ     th+8(FP), BX; \
	MOVQ     out+16(FP), CX; \
	MOVQ     n+24(FP), DX; \
	VMOVDQU  0(AX), Y0; \
	VMOVDQU  32(AX), Y1; \
	VMOVDQU  64(AX), Y2; \
	VMOVDQU  96(AX), Y3; \
	MOVQ     0(CX), R8; \
	MOVQ     8(CX), R9; \
	MOVQ     16(CX), R10; \
	MOVQ     24(CX), R11; \
	MOVQ     0(BX), R12; \
	MOVQ     8(BX), R13; \
	MOVQ     24(BX), SI; \
	MOVQ     16(BX), BX; \
	VPCMPEQQ Y14, Y14, Y14; \
	VPSLLQ   $63, Y14, Y14; \
	XORQ     CX, CX

// LANES_WORD starts a word: it leaves for done once no cell is left,
// sets DI to the cells in this word and X10 to the cells missing from a
// final partial word, and clears Y4.
#define LANES_WORD \
	TESTQ   DX, DX; \
	JLE     done; \
	MOVQ    $64, DI; \
	CMPQ    DX, DI; \
	CMOVQLT DX, DI; \
	SUBQ    DI, DX; \
	MOVQ    $64, AX; \
	SUBQ    DI, AX; \
	VMOVQ   AX, X10; \
	VPXOR   Y4, Y4, Y4

// LANES_LOAD loads the cell's four thresholds into Y5 and moves CX on.
#define LANES_LOAD \
	VMOVQ       (R12)(CX*8), X5; \
	VPINSRQ     $1, (R13)(CX*8), X5, X5; \
	VMOVQ       (BX)(CX*8), X6; \
	VPINSRQ     $1, (SI)(CX*8), X6, X6; \
	VINSERTI128 $1, X6, Y5, Y5; \
	INCQ        CX

// LANES_STORE shifts a partial word down so cell b sits at bit b, then
// stores each lane's word to its own destination.
#define LANES_STORE \
	VPSRLQ       X10, Y4, Y4; \
	VMOVQ        X4, (R8); \
	VPEXTRQ      $1, X4, (R9); \
	VEXTRACTI128 $1, Y4, X9; \
	VMOVQ        X9, (R10); \
	VPEXTRQ      $1, X9, (R11); \
	ADDQ         $8, R8; \
	ADDQ         $8, R9; \
	ADDQ         $8, R10; \
	ADDQ         $8, R11

// LANES_EPILOGUE writes the four states back.
#define LANES_EPILOGUE \
	MOVQ    state+0(FP), AX; \
	VMOVDQU Y0, 0(AX); \
	VMOVDQU Y1, 32(AX); \
	VMOVDQU Y2, 64(AX); \
	VMOVDQU Y3, 96(AX); \
	VZEROUPPER

// func bernoulliLanesAVX2(state *[4][Lanes]uint64, th, out *[Lanes]*uint64, n int)
TEXT ·bernoulliLanesAVX2(SB), NOSPLIT, $0-32
	LANES_PROLOGUE

word:
	LANES_WORD

cell:
	LANES_LOAD

	// x = rotl(s1*5, 7) * 9
	VPSLLQ $2, Y1, Y7
	VPADDQ Y1, Y7, Y7
	VPSLLQ $7, Y7, Y9
	VPSRLQ $57, Y7, Y7
	VPOR   Y9, Y7, Y7
	VPSLLQ $3, Y7, Y9
	VPADDQ Y9, Y7, Y7

	// The outcome enters at bit 63: (x>>11) - t is negative exactly when
	// x>>11 < t, as both are at most 2^53.
	VPSRLQ $11, Y7, Y7
	VPSUBQ Y5, Y7, Y7
	VPAND  Y14, Y7, Y7
	VPSRLQ $1, Y4, Y4
	VPOR   Y7, Y4, Y4

	// Advance the state.
	VPSLLQ $17, Y1, Y9
	VPXOR  Y0, Y2, Y2
	VPXOR  Y1, Y3, Y3
	VPXOR  Y2, Y1, Y1
	VPXOR  Y3, Y0, Y0
	VPXOR  Y9, Y2, Y2
	VPSLLQ $45, Y3, Y9
	VPSRLQ $19, Y3, Y3
	VPOR   Y9, Y3, Y3

	DECQ DI
	JNZ  cell
	LANES_STORE
	JMP  word

done:
	LANES_EPILOGUE
	RET

// func bernoulliLanesAVX512VL(state *[4][Lanes]uint64, th, out *[Lanes]*uint64, n int)
//
// The AVX2 kernel with EVEX forms on the same YMM registers: VPROLQ
// rotates in one instruction, and VPTERNLOGQ computes a three-input
// function whose truth table is its immediate (0x96: a^b^c, 0xF8:
// a|(b&c), with a the destination).
TEXT ·bernoulliLanesAVX512VL(SB), NOSPLIT, $0-32
	LANES_PROLOGUE

word:
	LANES_WORD

cell:
	LANES_LOAD

	// x = rotl(s1*5, 7) * 9
	VPSLLQ $2, Y1, Y7
	VPADDQ Y1, Y7, Y7
	VPROLQ $7, Y7, Y7
	VPSLLQ $3, Y7, Y9
	VPADDQ Y9, Y7, Y7

	// word = word>>1 | (x>>11 - t)&bit63
	VPSRLQ     $11, Y7, Y7
	VPSUBQ     Y5, Y7, Y7
	VPSRLQ     $1, Y4, Y4
	VPTERNLOGQ $0xF8, Y14, Y7, Y4

	// Advance the state: t = s1<<17 and y = s3^s1 from the old s1, then
	// s1 ^= s2^s0, s2 ^= s0^t, s0 ^= y, s3 = rotl(y, 45).
	VPSLLQ     $17, Y1, Y9
	VPXOR      Y1, Y3, Y3
	VPTERNLOGQ $0x96, Y0, Y2, Y1
	VPTERNLOGQ $0x96, Y9, Y0, Y2
	VPXOR      Y3, Y0, Y0
	VPROLQ     $45, Y3, Y3

	DECQ DI
	JNZ  cell
	LANES_STORE
	JMP  word

done:
	LANES_EPILOGUE
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

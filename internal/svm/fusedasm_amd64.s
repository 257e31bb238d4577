#include "textflag.h"

// func accumGroup64(ord *int32, val *float64, n int, w float64, acc *float64)
//
// Per lane of 8 postings: gather acc[ord[k]], add w*val[k] (separate
// multiply and add — see fusedasm_amd64.go for why FMA would break
// bit-identity), scatter back. The scatter instructions consume their
// mask register, so it is reloaded every lane.
//
// Lanes are software-pipelined two at a time: both gathers issue before
// either scatter, hiding the gather→scatter dependency chain that
// otherwise serializes the loop (the cells are random within the
// accumulator block, so the chain is latency-bound). Hoisting the second
// gather is safe because a real ordinal appears at most once per group,
// only a group's final lane carries pads, and a pad's value is zero — the
// second lane never reads a cell the first lane's scatter changes, so the
// per-cell arithmetic (and hence bit-identity) is untouched.
TEXT ·accumGroup64(SB), NOSPLIT, $0-40
	MOVQ ord+0(FP), SI
	MOVQ val+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ acc+32(FP), AX
	VBROADCASTSD w+24(FP), Z0
	SHRQ $3, CX
	MOVL $0xFF, DX
pair64:
	CMPQ CX, $2
	JLT  loop64
	VMOVDQU (SI), Y1
	VMOVDQU 32(SI), Y11
	KMOVW   DX, K1
	VGATHERDPD (AX)(Y1*8), K1, Z3
	KMOVW   DX, K3
	VGATHERDPD (AX)(Y11*8), K3, Z13
	VMOVUPD (DI), Z2
	VMULPD  Z2, Z0, Z2
	VADDPD  Z2, Z3, Z3
	VMOVUPD 64(DI), Z12
	VMULPD  Z12, Z0, Z12
	VADDPD  Z12, Z13, Z13
	KMOVW   DX, K2
	VSCATTERDPD Z3, K2, (AX)(Y1*8)
	KMOVW   DX, K4
	VSCATTERDPD Z13, K4, (AX)(Y11*8)
	ADDQ $64, SI
	ADDQ $128, DI
	SUBQ $2, CX
	JMP  pair64
loop64:
	TESTQ CX, CX
	JZ    done64
	VMOVDQU (SI), Y1
	KMOVW   DX, K1
	VGATHERDPD (AX)(Y1*8), K1, Z3
	VMOVUPD (DI), Z2
	VMULPD  Z2, Z0, Z2
	VADDPD  Z2, Z3, Z3
	KMOVW   DX, K2
	VSCATTERDPD Z3, K2, (AX)(Y1*8)
	ADDQ $32, SI
	ADDQ $64, DI
	DECQ CX
	JMP  loop64
done64:
	VZEROUPPER
	RET

DATA rbfBoundMax<>+0(SB)/4, $0x000000ff
GLOBL rbfBoundMax<>(SB), RODATA, $4

// func rbfSumBound64(coef, snGH, dots *float64, n int, b0, slope float64) float64
//
// Eight support vectors per iteration of the screening-bound reduction:
// z = (snGH + b0) - slope*dots elementwise (same operation order and
// rounding as the scalar loop), truncate to int32, clamp to [0,255],
// gather the exp upper bounds from rbfExpUB (2 KB, L1-resident), and
// multiply-accumulate with coef. Only the final summation order differs
// from the scalar loop, which the bound's one-whole-step slack absorbs
// (see rbfExpUB) — the bound stays admissible, which is all screening
// needs. n must be a multiple of 8 (the Go wrapper handles the tail).
//
// Iterations run two lanes at a time into independent accumulators
// (Z9, Z19), breaking the single add-chain that otherwise bounds the
// loop at one lane per VADDPD latency; the accumulators merge before the
// horizontal reduce. That is one more reassociation of the same
// nonnegative upper-bound terms, absorbed by the same slack argument.
// The per-element table indices stay bit-identical to the scalar loop.
TEXT ·rbfSumBound64(SB), NOSPLIT, $0-56
	MOVQ coef+0(FP), SI
	MOVQ snGH+8(FP), DI
	MOVQ dots+16(FP), BX
	MOVQ n+24(FP), CX
	VBROADCASTSD b0+32(FP), Z0
	VBROADCASTSD slope+40(FP), Z1
	LEAQ ·rbfExpUB(SB), R8
	SHRQ $3, CX
	MOVL $0xFF, AX
	VPXOR X5, X5, X5
	VPBROADCASTD rbfBoundMax<>(SB), Y6
	VXORPD X9, X9, X9
	VPXORQ Z19, Z19, Z19
pairb64:
	CMPQ CX, $2
	JLT  loopb64
	VMOVUPD (DI), Z3
	VADDPD  Z0, Z3, Z3
	VMOVUPD (BX), Z2
	VMULPD  Z1, Z2, Z2
	VSUBPD  Z2, Z3, Z3
	VMOVUPD 64(DI), Z13
	VADDPD  Z0, Z13, Z13
	VMOVUPD 64(BX), Z12
	VMULPD  Z1, Z12, Z12
	VSUBPD  Z12, Z13, Z13
	VCVTTPD2DQ Z3, Y4
	VPMAXSD Y5, Y4, Y4
	VPMINSD Y6, Y4, Y4
	VCVTTPD2DQ Z13, Y14
	VPMAXSD Y5, Y14, Y14
	VPMINSD Y6, Y14, Y14
	KMOVW   AX, K1
	VGATHERDPD (R8)(Y4*8), K1, Z7
	KMOVW   AX, K2
	VGATHERDPD (R8)(Y14*8), K2, Z17
	VMOVUPD (SI), Z8
	VMULPD  Z7, Z8, Z8
	VADDPD  Z8, Z9, Z9
	VMOVUPD 64(SI), Z18
	VMULPD  Z17, Z18, Z18
	VADDPD  Z18, Z19, Z19
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $2, CX
	JMP  pairb64
loopb64:
	TESTQ CX, CX
	JZ    doneb64
	VMOVUPD (DI), Z3
	VADDPD  Z0, Z3, Z3
	VMOVUPD (BX), Z2
	VMULPD  Z1, Z2, Z2
	VSUBPD  Z2, Z3, Z3
	VCVTTPD2DQ Z3, Y4
	VPMAXSD Y5, Y4, Y4
	VPMINSD Y6, Y4, Y4
	KMOVW   AX, K1
	VGATHERDPD (R8)(Y4*8), K1, Z7
	VMOVUPD (SI), Z8
	VMULPD  Z7, Z8, Z8
	VADDPD  Z8, Z9, Z9
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $64, BX
	DECQ CX
	JMP  loopb64
doneb64:
	VADDPD Z19, Z9, Z9
	VEXTRACTF64X4 $1, Z9, Y10
	VADDPD Y10, Y9, Y9
	VEXTRACTF128 $1, Y9, X10
	VADDPD X10, X9, X9
	VPERMILPD $1, X9, X10
	VADDSD X10, X9, X9
	VZEROUPPER
	MOVSD X9, ret+48(FP)
	RET

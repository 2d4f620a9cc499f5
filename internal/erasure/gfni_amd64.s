//go:build amd64 && !purego

#include "textflag.h"

// The one instruction-set tier of this package: GFNI + AVX2, VEX-encoded,
// 256-bit registers only. VGF2P8MULB multiplies 32 byte pairs in GF(2^8)
// reduced by x^8+x^4+x^3+x+1 — gfPoly, the field every table in this package
// is built over — so the kernels need no tables. Declarations and the
// callers' contract are in gfni_amd64.go.

// func cpuHasGFNI() bool
//
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1 and 2 (the OS
// saves XMM and YMM state), CPUID.7.0:EBX bit 5 (AVX2) and ECX bit 8 (GFNI).
TEXT ·cpuHasGFNI(SB), NOSPLIT, $0-1
	MOVL $0, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  no
	BTL  $8, CX
	JCC  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gfniMul(c byte, src, dst *byte, n int, xor bool)
//
// dst[i] = c·src[i], or dst[i] ^= c·src[i] when xor, for i < n; n is a
// positive multiple of 32.
TEXT ·gfniMul(SB), NOSPLIT, $0-33
	VPBROADCASTB c+0(FP), Y0
	MOVQ         src+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	CMPB         xor+32(FP), $0
	JNE          accumulate

assign:
	VGF2P8MULB (SI)(AX*1), Y0, Y1
	VMOVDQU    Y1, (DI)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JB         assign
	VZEROUPPER
	RET

accumulate:
	VGF2P8MULB (SI)(AX*1), Y0, Y1
	VPXOR      (DI)(AX*1), Y1, Y1
	VMOVDQU    Y1, (DI)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JB         accumulate
	VZEROUPPER
	RET

// func gfniMul4(c0, c1, c2, c3 byte, src, d0, d1, d2, d3 *byte, n int, xor bool)
//
// dj[i] = cj·src[i] for j = 0..3, or dj[i] ^= cj·src[i] when xor, for
// i < n; n is a positive multiple of 32. Each source block is loaded once
// and multiplied into four rows.
TEXT ·gfniMul4(SB), NOSPLIT, $0-57
	VPBROADCASTB c0+0(FP), Y0
	VPBROADCASTB c1+1(FP), Y1
	VPBROADCASTB c2+2(FP), Y2
	VPBROADCASTB c3+3(FP), Y3
	MOVQ         src+8(FP), SI
	MOVQ         d0+16(FP), R8
	MOVQ         d1+24(FP), R9
	MOVQ         d2+32(FP), R10
	MOVQ         d3+40(FP), R11
	MOVQ         n+48(FP), CX
	XORQ         AX, AX
	CMPB         xor+56(FP), $0
	JNE          accumulate4

assign4:
	VMOVDQU    (SI)(AX*1), Y4
	VGF2P8MULB Y4, Y0, Y5
	VGF2P8MULB Y4, Y1, Y6
	VGF2P8MULB Y4, Y2, Y7
	VGF2P8MULB Y4, Y3, Y8
	VMOVDQU    Y5, (R8)(AX*1)
	VMOVDQU    Y6, (R9)(AX*1)
	VMOVDQU    Y7, (R10)(AX*1)
	VMOVDQU    Y8, (R11)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JB         assign4
	VZEROUPPER
	RET

accumulate4:
	VMOVDQU    (SI)(AX*1), Y4
	VGF2P8MULB Y4, Y0, Y5
	VGF2P8MULB Y4, Y1, Y6
	VGF2P8MULB Y4, Y2, Y7
	VGF2P8MULB Y4, Y3, Y8
	VPXOR      (R8)(AX*1), Y5, Y5
	VPXOR      (R9)(AX*1), Y6, Y6
	VPXOR      (R10)(AX*1), Y7, Y7
	VPXOR      (R11)(AX*1), Y8, Y8
	VMOVDQU    Y5, (R8)(AX*1)
	VMOVDQU    Y6, (R9)(AX*1)
	VMOVDQU    Y7, (R10)(AX*1)
	VMOVDQU    Y8, (R11)(AX*1)
	ADDQ       $32, AX
	CMPQ       AX, CX
	JB         accumulate4
	VZEROUPPER
	RET

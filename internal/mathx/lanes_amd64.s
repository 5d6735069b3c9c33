//go:build !race

#include "textflag.h"

// AVX bodies of the lane primitives (lanes.go has the portable ones). Every
// SIMD lane is one output element's own accumulator, and each multiply and
// each add is its own separately rounded VMULPD/VADDPD in the portable
// body's order, so results are bit-identical to it. AVX1 only: no FMA, no
// single precision. Scalar tails stay VEX-encoded (VMOVSD/VMULSD/VADDSD) to
// avoid SSE/AVX transition stalls, and VZEROUPPER runs before every RET.

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV               // XCR0 into DX:AX
	ANDL $6, AX          // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// func dotLanesAVX(xt, w0, w1 []float64, acc *[16]float64, lanes int)
//
// Y0/Y1 hold acc[0:8] (output w0, lanes 0-7) and Y2/Y3 hold acc[8:16]
// (output w1). Each step broadcasts w0[i] and w1[i] and adds their products
// with the i-th transposed column into the accumulators.
TEXT ·dotLanesAVX(SB), NOSPLIT, $0-88
	MOVQ xt_base+0(FP), SI
	MOVQ w0_base+24(FP), AX
	MOVQ w0_len+32(FP), CX
	MOVQ w1_base+48(FP), BX
	MOVQ acc+72(FP), DI
	MOVQ lanes+80(FP), DX
	CMPQ DX, $8
	JNE  four
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	TESTQ   CX, CX
	JZ      store8

loop8:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (BX), Y5
	VMOVUPD      (SI), Y6
	VMOVUPD      32(SI), Y7
	VMULPD       Y4, Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y4, Y7, Y9
	VADDPD       Y9, Y1, Y1
	VMULPD       Y5, Y6, Y10
	VADDPD       Y10, Y2, Y2
	VMULPD       Y5, Y7, Y11
	VADDPD       Y11, Y3, Y3
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $64, SI
	DECQ         CX
	JNZ          loop8

store8:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

four:
	VMOVUPD 0(DI), Y0
	VMOVUPD 64(DI), Y2
	TESTQ   CX, CX
	JZ      store4

loop4:
	VBROADCASTSD (AX), Y4
	VBROADCASTSD (BX), Y5
	VMOVUPD      (SI), Y6
	VMULPD       Y4, Y6, Y8
	VADDPD       Y8, Y0, Y0
	VMULPD       Y5, Y6, Y10
	VADDPD       Y10, Y2, Y2
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $32, SI
	DECQ         CX
	JNZ          loop4

store4:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y2, 64(DI)
	VZEROUPPER
	RET

// func axpy4AVX(y, a0, a1, a2, a3 []float64, d *[4]float64)
//
// Y0-Y3 hold d[0..3] broadcast; each element of y takes its four products
// in order d0*a0, d1*a1, d2*a2, d3*a3, four elements per vector step.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-128
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         a0_base+24(FP), R8
	MOVQ         a1_base+48(FP), R9
	MOVQ         a2_base+72(FP), R10
	MOVQ         a3_base+96(FP), R11
	MOVQ         d+120(FP), AX
	VBROADCASTSD 0(AX), Y0
	VBROADCASTSD 8(AX), Y1
	VBROADCASTSD 16(AX), Y2
	VBROADCASTSD 24(AX), Y3
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail4

vec4:
	VMOVUPD (DI)(SI*8), Y4
	VMULPD  (R8)(SI*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(SI*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(SI*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R11)(SI*8), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JLT     vec4

tail4:
	CMPQ SI, CX
	JGE  done4

scalar4:
	VMOVSD (DI)(SI*8), X4
	VMULSD (R8)(SI*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(SI*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(SI*8), X2, X7
	VADDSD X7, X4, X4
	VMULSD (R11)(SI*8), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	CMPQ   SI, CX
	JLT    scalar4

done4:
	VZEROUPPER
	RET

// func axpy1AVX(y, a []float64, d float64)
TEXT ·axpy1AVX(SB), NOSPLIT, $0-56
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         a_base+24(FP), R8
	VBROADCASTSD d+48(FP), Y0
	XORQ         SI, SI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           tail1

vec1:
	VMOVUPD (DI)(SI*8), Y4
	VMULPD  (R8)(SI*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(SI*8)
	ADDQ    $4, SI
	CMPQ    SI, DX
	JLT     vec1

tail1:
	CMPQ SI, CX
	JGE  done1

scalar1:
	VMOVSD (DI)(SI*8), X4
	VMULSD (R8)(SI*8), X0, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(SI*8)
	INCQ   SI
	CMPQ   SI, CX
	JLT    scalar1

done1:
	VZEROUPPER
	RET

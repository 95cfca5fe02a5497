// dist16 and predict16 are predictRBF16's two passes on sixteen lanes, four
// per ymm register. Every product is rounded before its sum or difference
// (no FMA) and each lane runs PredictInto's operations in its order, so a
// lane gets the bits one candidate gets from PredictInto. The four
// registers of k carry independent subtract chains through each row's
// substitution.
#include "textflag.h"

// func dist16(cols, inv []float64, xs [][]float64, v []float64)
TEXT ·dist16(SB), NOSPLIT, $0-96
	MOVQ         cols_base+0(FP), SI    // coordinate d of the sixteen lanes at SI+128·d
	MOVQ         inv_base+24(FP), DX
	MOVQ         inv_len+32(FP), CX     // dim
	MOVQ         xs_base+48(FP), BX     // row r's slice header at BX+24·r
	MOVQ         xs_len+56(FP), R8
	MOVQ         v_base+72(FP), DI
	MOVQ         $0xbfe0000000000000, AX // -0.5
	MOVQ         AX, X15
	VBROADCASTSD X15, Y15

drow:
	TESTQ        R8, R8
	JZ           ddone
	MOVQ         (BX), R9               // xs[r]
	VXORPD       Y0, Y0, Y0             // q, lanes 0..15 in Y0..Y3
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	MOVQ         SI, R11
	XORQ         R10, R10               // d

dcol:
	CMPQ         R10, CX
	JGE          dstore
	VBROADCASTSD (R9)(R10*8), Y12
	VBROADCASTSD (DX)(R10*8), Y13
	VMOVUPD      (R11), Y4              // e = (x_d − xs[r][d])·inv_d; q += e·e
	VSUBPD       Y12, Y4, Y4
	VMULPD       Y13, Y4, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y0, Y0
	VMOVUPD      32(R11), Y5
	VSUBPD       Y12, Y5, Y5
	VMULPD       Y13, Y5, Y5
	VMULPD       Y5, Y5, Y5
	VADDPD       Y5, Y1, Y1
	VMOVUPD      64(R11), Y6
	VSUBPD       Y12, Y6, Y6
	VMULPD       Y13, Y6, Y6
	VMULPD       Y6, Y6, Y6
	VADDPD       Y6, Y2, Y2
	VMOVUPD      96(R11), Y7
	VSUBPD       Y12, Y7, Y7
	VMULPD       Y13, Y7, Y7
	VMULPD       Y7, Y7, Y7
	VADDPD       Y7, Y3, Y3
	INCQ         R10
	ADDQ         $128, R11
	JMP          dcol

dstore:
	VMULPD       Y15, Y0, Y0            // v[16r+j] = -0.5·q
	VMULPD       Y15, Y1, Y1
	VMULPD       Y15, Y2, Y2
	VMULPD       Y15, Y3, Y3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	ADDQ         $24, BX
	ADDQ         $128, DI
	DECQ         R8
	JMP          drow

ddone:
	VZEROUPPER
	RET

// func predict16(v, alpha, l []float64, cols int, variance float64, mu, vv *[16]float64)
TEXT ·predict16(SB), NOSPLIT, $0-104
	MOVQ         v_base+0(FP), SI       // v: row r's sixteen lanes at SI+128·r
	MOVQ         alpha_base+24(FP), DX
	MOVQ         alpha_len+32(FP), CX   // n rows
	MOVQ         l_base+48(FP), BX      // L's row r
	MOVQ         cols+72(FP), R8
	SHLQ         $3, R8                 // L's row stride in bytes
	VBROADCASTSD variance+80(FP), Y12
	VXORPD       Y4, Y4, Y4             // μ, lanes 0..15 in Y4..Y7
	VXORPD       Y5, Y5, Y5
	VXORPD       Y6, Y6, Y6
	VXORPD       Y7, Y7, Y7
	VXORPD       Y8, Y8, Y8             // v·v, lanes 0..15 in Y8..Y11
	VXORPD       Y9, Y9, Y9
	VXORPD       Y10, Y10, Y10
	VXORPD       Y11, Y11, Y11
	MOVQ         SI, DI                 // v's row r
	XORQ         R9, R9                 // r

row:
	CMPQ         R9, CX
	JGE          done
	VMULPD       (DI), Y12, Y0          // k = σ²·e
	VMULPD       32(DI), Y12, Y1
	VMULPD       64(DI), Y12, Y2
	VMULPD       96(DI), Y12, Y3
	VBROADCASTSD (DX)(R9*8), Y15        // μ += k·α_r
	VMULPD       Y15, Y0, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       Y15, Y1, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       Y15, Y2, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       Y15, Y3, Y14
	VADDPD       Y14, Y7, Y7
	MOVQ         SI, R11                // v's row c
	XORQ         R10, R10               // c

col:
	CMPQ         R10, R9
	JGE          diag
	VBROADCASTSD (BX)(R10*8), Y15       // k -= L_rc·v_c
	VMULPD       (R11), Y15, Y13
	VSUBPD       Y13, Y0, Y0
	VMULPD       32(R11), Y15, Y14
	VSUBPD       Y14, Y1, Y1
	VMULPD       64(R11), Y15, Y13
	VSUBPD       Y13, Y2, Y2
	VMULPD       96(R11), Y15, Y14
	VSUBPD       Y14, Y3, Y3
	INCQ         R10
	ADDQ         $128, R11
	JMP          col

diag:
	VBROADCASTSD (BX)(R9*8), Y15        // v_r = k / L_rr, stored over e
	VDIVPD       Y15, Y0, Y0
	VDIVPD       Y15, Y1, Y1
	VDIVPD       Y15, Y2, Y2
	VDIVPD       Y15, Y3, Y3
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VMOVUPD      Y2, 64(DI)
	VMOVUPD      Y3, 96(DI)
	VMULPD       Y0, Y0, Y13            // v·v += v_r²
	VADDPD       Y13, Y8, Y8
	VMULPD       Y1, Y1, Y14
	VADDPD       Y14, Y9, Y9
	VMULPD       Y2, Y2, Y13
	VADDPD       Y13, Y10, Y10
	VMULPD       Y3, Y3, Y14
	VADDPD       Y14, Y11, Y11
	INCQ         R9
	ADDQ         $128, DI
	ADDQ         R8, BX
	JMP          row

done:
	MOVQ         mu+88(FP), AX
	VMOVUPD      Y4, (AX)
	VMOVUPD      Y5, 32(AX)
	VMOVUPD      Y6, 64(AX)
	VMOVUPD      Y7, 96(AX)
	MOVQ         vv+96(FP), AX
	VMOVUPD      Y8, (AX)
	VMOVUPD      Y9, 32(AX)
	VMOVUPD      Y10, 64(AX)
	VMOVUPD      Y11, 96(AX)
	VZEROUPPER
	RET

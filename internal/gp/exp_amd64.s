// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// exp4 is the AVX+FMA path of math/exp_amd64.s (Shibata's SLEEF method,
// ISC'10) packed four lanes wide: each lane does the scalar code's IEEE
// operations in its order, so it gets math.Exp's bits. It takes lanes in
// [-708, 0], where the scalar code goes straight to lastStep, and lanes at
// or below -746, which it sets to +0 as the scalar code's underflow branch
// does (there x·log2(e) rounds to an exponent below -1075).
#include "textflag.h"

DATA expdata<>+0(SB)/8, $1.4426950408889634073599246810018920 // log2(e)
DATA expdata<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // ln2, upper half
DATA expdata<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2, lower half
DATA expdata<>+24(SB)/8, $0.0625
DATA expdata<>+32(SB)/8, $2.4801587301587301587e-5
DATA expdata<>+40(SB)/8, $1.9841269841269841270e-4
DATA expdata<>+48(SB)/8, $1.3888888888888888889e-3
DATA expdata<>+56(SB)/8, $8.3333333333333333333e-3
DATA expdata<>+64(SB)/8, $4.1666666666666666667e-2
DATA expdata<>+72(SB)/8, $1.6666666666666666667e-1
DATA expdata<>+80(SB)/8, $0.5
DATA expdata<>+88(SB)/8, $1.0
DATA expdata<>+96(SB)/8, $2.0
DATA expdata<>+104(SB)/8, $-708.0
DATA expdata<>+112(SB)/8, $1023 // exponent bias
DATA expdata<>+120(SB)/8, $-746.0
GLOBL expdata<>+0(SB), RODATA, $128

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX // FMA, OSXSAVE, AVX
	CMPL CX, $0x18001000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
no:
	RET

// func exp4(x []float64) int
TEXT ·exp4(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	XORQ AX, AX
	VBROADCASTSD expdata<>+0(SB), Y15
	VBROADCASTSD expdata<>+8(SB), Y14
	VBROADCASTSD expdata<>+16(SB), Y13
	VBROADCASTSD expdata<>+32(SB), Y11
	VBROADCASTSD expdata<>+40(SB), Y10
	VBROADCASTSD expdata<>+48(SB), Y9
	VBROADCASTSD expdata<>+56(SB), Y8
	VBROADCASTSD expdata<>+64(SB), Y7
	VBROADCASTSD expdata<>+72(SB), Y6
	VBROADCASTSD expdata<>+80(SB), Y5
	VBROADCASTSD expdata<>+88(SB), Y4
loop:
	CMPQ CX, $4
	JLT  done
	VMOVUPD (SI), Y0
	VBROADCASTSD expdata<>+104(SB), Y1
	VCMPPD       $0x1d, Y1, Y0, Y1 // x >= -708
	VXORPD       Y2, Y2, Y2
	VCMPPD       $0x12, Y2, Y0, Y2 // x <= 0
	VANDPD       Y1, Y2, Y1
	VBROADCASTSD expdata<>+120(SB), Y2
	VCMPPD       $0x12, Y2, Y0, Y12 // x <= -746: math.Exp's underflow to +0
	VORPD        Y12, Y1, Y1
	VMOVMSKPD    Y1, BX
	CMPQ         BX, $15
	JNE          done            // a lane in (-746, -708), above 0, or NaN
	VMULPD       Y15, Y0, Y1 // x·log2e
	VCVTPD2DQY   Y1, X3      // k, rounded as CVTSD2SL rounds
	VCVTDQ2PD    X3, Y2
	VFNMADD231PD Y14, Y2, Y0 // x -= k·ln2U
	VFNMADD231PD Y13, Y2, Y0 // x -= k·ln2L
	VBROADCASTSD expdata<>+24(SB), Y2
	VMULPD       Y2, Y0, Y0 // reduce argument
	VMOVAPD      Y11, Y1     // Taylor series evaluation
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y7, Y0, Y1
	VFMADD213PD Y6, Y0, Y1
	VFMADD213PD Y5, Y0, Y1
	VFMADD213PD Y4, Y0, Y1
	VMULPD      Y1, Y0, Y0
	VBROADCASTSD expdata<>+96(SB), Y2
	VADDPD       Y2, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y2, Y0, Y1
	VFMADD213PD  Y4, Y1, Y0 // four x·(x+2) squarings, the last fused with +1
	VPMOVSXDQ    X3, Y3     // fr·2**k
	VBROADCASTSD expdata<>+112(SB), Y1
	VPADDQ       Y1, Y3, Y3
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y3, Y0, Y0
	VANDNPD      Y0, Y12, Y0 // +0 where x <= -746
	VMOVUPD      Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $4, AX
	SUBQ    $4, CX
	JMP     loop
done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

#include "textflag.h"

// func foldCastagnoli(crc uint32, p []byte, k *[4]uint64) uint32
//
// crc is the raw (not inverted) CRC-32C register; len(p) is a non-zero
// multiple of 256. k holds the reflected fold multipliers: k[0], k[1] fold
// a 128-bit lane forward by 2048 bits, k[2], k[3] by 512 bits.
TEXT ·foldCastagnoli(SB), NOSPLIT, $64-44
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX

	// The first 256 bytes, with the register folded into the first four.
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4
	VPXORD    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	JZ        combine

	// Each lane of each accumulator folds forward by 256 bytes onto the
	// lane that far ahead in the next block: lo·k[0] ⊕ hi·k[1] ⊕ next.
	VBROADCASTI32X4 (DX), Z10

loop:
	VPCLMULQDQ $0x00, Z10, Z0, Z4
	VPCLMULQDQ $0x11, Z10, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z4, Z0
	VPCLMULQDQ $0x00, Z10, Z1, Z5
	VPCLMULQDQ $0x11, Z10, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z5, Z1
	VPCLMULQDQ $0x00, Z10, Z2, Z6
	VPCLMULQDQ $0x11, Z10, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z6, Z2
	VPCLMULQDQ $0x00, Z10, Z3, Z7
	VPCLMULQDQ $0x11, Z10, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z7, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JNZ        loop

combine:
	// Fold the accumulators into the last one, 512 bits at a time.
	VBROADCASTI32X4 16(DX), Z11
	VPCLMULQDQ      $0x00, Z11, Z0, Z4
	VPCLMULQDQ      $0x11, Z11, Z0, Z0
	VPTERNLOGD      $0x96, Z4, Z0, Z1
	VPCLMULQDQ      $0x00, Z11, Z1, Z5
	VPCLMULQDQ      $0x11, Z11, Z1, Z1
	VPTERNLOGD      $0x96, Z5, Z1, Z2
	VPCLMULQDQ      $0x00, Z11, Z2, Z6
	VPCLMULQDQ      $0x11, Z11, Z2, Z2
	VPTERNLOGD      $0x96, Z6, Z2, Z3

	// Z3 is congruent to the whole input modulo P, so its 64 bytes,
	// checksummed from a zero register, give the input's CRC.
	VMOVDQU64  Z3, (SP)
	VZEROUPPER
	XORL       AX, AX
	CRC32Q     0(SP), AX
	CRC32Q     8(SP), AX
	CRC32Q     16(SP), AX
	CRC32Q     24(SP), AX
	CRC32Q     32(SP), AX
	CRC32Q     40(SP), AX
	CRC32Q     48(SP), AX
	CRC32Q     56(SP), AX
	MOVL       AX, ret+40(FP)
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

// func xgetbv() (lo uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, lo+0(FP)
	RET

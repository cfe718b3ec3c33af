#include "textflag.h"

// MakeBlob's 16-lane row fill. Y0..Y3 hold the xorshift64 states of
// lanes 0-3, 4-7, 8-11 and 12-15. Each step turns a state x into the
// byte x%94 without a 64-bit multiply-high. x%94 is 2·((x>>1) mod 47)
// + (x&1), and 2^23 ≡ 1 (mod 47), so 2^24 ≡ 2^47 ≡ 2 (mod 94): x folds
// to t = (x & (2^24-1)) + 2·((x>>24) & (2^23-1)) + 2·(x>>47), with
// t ≡ x (mod 94) and t < 2^26. t%94 is t - 94·q for q = (t>>1)/47, and
// q = (t·91382283)>>33 (91382283 = ⌈2^32/47⌉): (s·91382283)>>32 is s/47
// for s = t>>1 < 2^32/5, and t's low bit adds under 0.011 to a quotient
// whose fraction is at most 46/47 plus 5·s/(47·2^32).
//
// Eight steps fill one 8-byte word per lane, byte j shifted to bits
// 8j..8j+7. A row is seven full words and a last word of seven bytes,
// whose top byte is the row's '\n'. Each word gets its ' ' bias added
// and goes out with one 8-byte store per lane.
//
// Registers: Y4..Y7 collect the words of lanes 0-3, ..., 12-15;
// Y8, Y9 and Y10 are the masks of t's three terms, Y11 = 91382283,
// Y14 = 94, Y15 = the word bias; Y12 and Y13 are scratch.

DATA mask24<>+0(SB)/8, $0xffffff
GLOBL mask24<>(SB), RODATA|NOPTR, $8
DATA mask24even<>+0(SB)/8, $0xfffffe
GLOBL mask24even<>(SB), RODATA|NOPTR, $8
DATA mask18even<>+0(SB)/8, $0x3fffe
GLOBL mask18even<>(SB), RODATA|NOPTR, $8
DATA magic47<>+0(SB)/8, $91382283
GLOBL magic47<>(SB), RODATA|NOPTR, $8
DATA const94<>+0(SB)/8, $94
GLOBL const94<>(SB), RODATA|NOPTR, $8
DATA bias<>+0(SB)/8, $0x2020202020202020
GLOBL bias<>(SB), RODATA|NOPTR, $8
DATA lastbias<>+0(SB)/8, $0x0020202020202020
GLOBL lastbias<>(SB), RODATA|NOPTR, $8
DATA newline<>+0(SB)/8, $0x0a00000000000000
GLOBL newline<>(SB), RODATA|NOPTR, $8

// XORSHIFT advances the four states in x one xorshift64 step.
#define XORSHIFT(x) \
	VPSLLQ $13, x, Y12; VPXOR Y12, x, x; \
	VPSRLQ $7, x, Y12; VPXOR Y12, x, x; \
	VPSLLQ $17, x, Y12; VPXOR Y12, x, x

// MOD94 sets out to x%94 for the four states in x.
#define MOD94(x, out) \
	VPAND Y8, x, Y12; \
	VPSRLQ $23, x, Y13; VPAND Y9, Y13, Y13; VPADDQ Y13, Y12, Y12; \
	VPSRLQ $46, x, Y13; VPAND Y10, Y13, Y13; VPADDQ Y13, Y12, Y12; \
	VPMULUDQ Y11, Y12, Y13; VPSRLQ $33, Y13, Y13; \
	VPMULUDQ Y14, Y13, Y13; VPSUBQ Y13, Y12, out

// FIRST starts the words in Y4..Y7 with one step's bytes.
#define FIRST \
	XORSHIFT(Y0); MOD94(Y0, Y4); \
	XORSHIFT(Y1); MOD94(Y1, Y5); \
	XORSHIFT(Y2); MOD94(Y2, Y6); \
	XORSHIFT(Y3); MOD94(Y3, Y7)

// NEXT1 adds one step's byte for the lanes in x to word a at bit sh.
#define NEXT1(x, a, sh) \
	XORSHIFT(x); MOD94(x, Y12); VPSLLQ $sh, Y12, Y12; VPOR Y12, a, a

#define NEXT(sh) \
	NEXT1(Y0, Y4, sh); NEXT1(Y1, Y5, sh); NEXT1(Y2, Y6, sh); NEXT1(Y3, Y7, sh)

// STORE writes the four words in y (x is its low half) to lanes at p,
// p+stride, p+2·stride and p+3·stride.
#define STORE(y, x, p) \
	VMOVQ x, (p); \
	VPEXTRQ $1, x, (p)(R8*1); \
	VEXTRACTI128 $1, y, X12; \
	VMOVQ X12, (p)(R8*2); \
	VPEXTRQ $1, X12, (p)(R9*1)

#define STOREALL \
	STORE(Y4, X4, SI); STORE(Y5, X5, R10); STORE(Y6, X6, R11); STORE(Y7, X7, R12); \
	ADDQ $8, SI; ADDQ $8, R10; ADDQ $8, R11; ADDQ $8, R12

// func fill16(dst *byte, stride, rows int, x *[16]uint64)
TEXT ·fill16(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ rows+16(FP), DX
	MOVQ x+24(FP), DI
	LEAQ (R8)(R8*2), R9  // 3·stride
	LEAQ (SI)(R8*4), R10 // lane 4
	LEAQ (R10)(R8*4), R11 // lane 8
	LEAQ (R11)(R8*4), R12 // lane 12

	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VPBROADCASTQ mask24<>(SB), Y8
	VPBROADCASTQ mask24even<>(SB), Y9
	VPBROADCASTQ mask18even<>(SB), Y10
	VPBROADCASTQ magic47<>(SB), Y11
	VPBROADCASTQ const94<>(SB), Y14
	VPBROADCASTQ bias<>(SB), Y15

row:
	MOVQ $7, CX

word:
	FIRST
	NEXT(8)
	NEXT(16)
	NEXT(24)
	NEXT(32)
	NEXT(40)
	NEXT(48)
	NEXT(56)
	VPADDQ Y15, Y4, Y4
	VPADDQ Y15, Y5, Y5
	VPADDQ Y15, Y6, Y6
	VPADDQ Y15, Y7, Y7
	STOREALL
	DECQ CX
	JNZ  word

	// The last word: seven bytes and the '\n'.
	FIRST
	NEXT(8)
	NEXT(16)
	NEXT(24)
	NEXT(32)
	NEXT(40)
	NEXT(48)
	VPBROADCASTQ lastbias<>(SB), Y12
	VPADDQ       Y12, Y4, Y4
	VPADDQ       Y12, Y5, Y5
	VPADDQ       Y12, Y6, Y6
	VPADDQ       Y12, Y7, Y7
	VPBROADCASTQ newline<>(SB), Y12
	VPOR         Y12, Y4, Y4
	VPOR         Y12, Y5, Y5
	VPOR         Y12, Y6, Y6
	VPOR         Y12, Y7, Y7
	STOREALL
	DECQ DX
	JNZ  row

	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done

	// Leaf 1: ECX bit 27 is OSXSAVE, bit 28 is AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	// Leaf 7, subleaf 0: EBX bit 5 is AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX
	JCC  done
	MOVB $1, ret+0(FP)

done:
	RET

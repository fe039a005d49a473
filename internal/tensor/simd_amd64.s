// AVX2 micro-kernels for Linear and ConvPoolInto, and the CPU probe that
// gates them. Every lane of every accumulator is one work-item's own
// float32 sum: VMULPS rounds the product, VADDPS adds it, in the order
// the Go kernels in linear.go and conv.go add theirs — never an FMA.
// DESIGN.md §4 item 10 has the lane assignment and the bounds contract;
// simd_amd64.go declares each kernel with the extent it touches.
//
// R15 and BP are not used (dynamic linking, frame-pointer unwinding).

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// laneMask is eight all-ones lanes then eight zero lanes: the 32 bytes
// at laneMask+32-4n mask lanes 0 … n-1 (LANEMASK).
DATA  laneMask<>+0(SB)/8, $-1
DATA  laneMask<>+8(SB)/8, $-1
DATA  laneMask<>+16(SB)/8, $-1
DATA  laneMask<>+24(SB)/8, $-1
DATA  laneMask<>+32(SB)/8, $0
DATA  laneMask<>+40(SB)/8, $0
DATA  laneMask<>+48(SB)/8, $0
DATA  laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// STEP is one work-item step in eight lanes: acc += x·w, the product
// rounded before the add. Y8 holds x; w is one weight, broadcast.
#define STEP(w, tmp, acc) \
	VBROADCASTSS w, tmp; \
	VMULPS       Y8, tmp, tmp; \
	VADDPS       tmp, acc, acc

// STEP8 runs STEP for the eight weight rows at SI, SI+R9, …, SI+7·R9
// (R10 = 3·R9, DI = SI+4·R9) into Y0…Y7.
#define STEP8 \
	STEP((SI), Y9, Y0); \
	STEP((SI)(R9*1), Y10, Y1); \
	STEP((SI)(R9*2), Y11, Y2); \
	STEP((SI)(R10*1), Y12, Y3); \
	STEP((DI), Y13, Y4); \
	STEP((DI)(R9*1), Y14, Y5); \
	STEP((DI)(R9*2), Y15, Y6); \
	STEP((DI)(R10*1), Y9, Y7)

// RELU8 is `if v < 0 { v = 0 }` on Y0…Y7: VMAXPS returns its second
// source (in Go's operand order, the first) unless the other is
// greater, so -0 and NaN pass through as they do in relu().
#define RELU8 \
	VXORPS Y8, Y8, Y8; \
	VMAXPS Y0, Y8, Y0; \
	VMAXPS Y1, Y8, Y1; \
	VMAXPS Y2, Y8, Y2; \
	VMAXPS Y3, Y8, Y3; \
	VMAXPS Y4, Y8, Y4; \
	VMAXPS Y5, Y8, Y5; \
	VMAXPS Y6, Y8, Y6; \
	VMAXPS Y7, Y8, Y7

// TRANSPOSE8 transposes the 8×8 block whose rows are Y0…Y7 into Y8…Y15:
// lane l of Yt becomes lane t of Y(8+l).
#define TRANSPOSE8 \
	VUNPCKLPS  Y1, Y0, Y8; \
	VUNPCKHPS  Y1, Y0, Y9; \
	VUNPCKLPS  Y3, Y2, Y10; \
	VUNPCKHPS  Y3, Y2, Y11; \
	VUNPCKLPS  Y5, Y4, Y12; \
	VUNPCKHPS  Y5, Y4, Y13; \
	VUNPCKLPS  Y7, Y6, Y14; \
	VUNPCKHPS  Y7, Y6, Y15; \
	VSHUFPS    $0x44, Y10, Y8, Y0; \
	VSHUFPS    $0xEE, Y10, Y8, Y1; \
	VSHUFPS    $0x44, Y11, Y9, Y2; \
	VSHUFPS    $0xEE, Y11, Y9, Y3; \
	VSHUFPS    $0x44, Y14, Y12, Y4; \
	VSHUFPS    $0xEE, Y14, Y12, Y5; \
	VSHUFPS    $0x44, Y15, Y13, Y6; \
	VSHUFPS    $0xEE, Y15, Y13, Y7; \
	VPERM2F128 $0x20, Y4, Y0, Y8; \
	VPERM2F128 $0x20, Y5, Y1, Y9; \
	VPERM2F128 $0x20, Y6, Y2, Y10; \
	VPERM2F128 $0x20, Y7, Y3, Y11; \
	VPERM2F128 $0x31, Y4, Y0, Y12; \
	VPERM2F128 $0x31, Y5, Y1, Y13; \
	VPERM2F128 $0x31, Y6, Y2, Y14; \
	VPERM2F128 $0x31, Y7, Y3, Y15

// CLAMP sets reg to min(t, R10): a tile's neuron t, or for t past the
// tile's last neuron R10, that neuron.
#define CLAMP(t, reg) \
	MOVQ    $t, reg; \
	CMPQ    reg, R10; \
	CMOVQGT R10, reg

// ROW points reg at the weight row of CLAMP(t) among the rows at SI,
// R9 bytes apart: a tile's rows past its last neuron alias that
// neuron's.
#define ROW(t, reg) \
	CLAMP(t, reg); \
	IMULQ R9, reg; \
	ADDQ  SI, reg

// BIAS adds bias[CLAMP(t)], at CX, to every lane of acc.
#define BIAS(t, acc) \
	CLAMP(t, R9); \
	VBROADCASTSS (CX)(R9*4), Y8; \
	VADDPS       Y8, acc, acc

// LANEMASK sets mask to lanes 0 … n-1 all ones, the rest zero, for n in
// 1 … 8 in reg, which it negates.
#define LANEMASK(reg, mask) \
	LEAQ    laneMask<>(SB), R9; \
	NEGQ    reg; \
	VMOVUPS 32(R9)(reg*4), mask

// func linearTileAVX2(dst *float32, dstStride uintptr, panel, w *float32, wStride, k uintptr, bias *float32, relu, cols, panels uintptr)
//
// Tiles of Linear: cols ≤ 8 neurons against each of `panels` panels in
// a row, eight samples each. Accumulator t (Y0…Y7) is neuron t of the
// tile, its lanes the panel's eight samples; past the tile's last
// neuron an accumulator repeats that neuron's sum, reading its row, and
// is never stored. After the sum over p come bias, ReLU, and an 8×8
// transpose so that each sample's outputs are stored with one write:
// all eight, or the first cols under a lane mask, which neither stores
// nor faults on the lanes it leaves. The next panel follows in memory,
// its samples' outputs eight rows of dst on. The weight rows' addresses
// wait in the frame between panels. Strides are in bytes.
TEXT ·linearTileAVX2(SB), NOSPLIT, $80-80
	MOVQ w+24(FP), SI
	MOVQ wStride+32(FP), R9
	MOVQ cols+64(FP), R10
	DECQ R10
	ROW(1, DI)
	ROW(2, BX)
	ROW(3, DX)
	ROW(4, R8)
	ROW(5, R11)
	ROW(6, R12)
	ROW(7, R13)
	MOVQ SI, 0(SP)
	MOVQ DI, 8(SP)
	MOVQ BX, 16(SP)
	MOVQ DX, 24(SP)
	MOVQ R8, 32(SP)
	MOVQ R11, 40(SP)
	MOVQ R12, 48(SP)
	MOVQ R13, 56(SP)
	MOVQ dst+0(FP), AX
	MOVQ AX, 64(SP)
	MOVQ panels+72(FP), AX
	MOVQ AX, 72(SP)
	MOVQ panel+16(FP), AX

linearPanel:
	MOVQ   0(SP), SI
	MOVQ   8(SP), DI
	MOVQ   16(SP), BX
	MOVQ   24(SP), DX
	MOVQ   32(SP), R8
	MOVQ   40(SP), R11
	MOVQ   48(SP), R12
	MOVQ   56(SP), R13
	MOVQ   k+40(FP), CX
	XORQ   R14, R14
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

linearStep:
	VMOVUPS (AX), Y8
	STEP((SI)(R14*1), Y9, Y0)
	STEP((DI)(R14*1), Y10, Y1)
	STEP((BX)(R14*1), Y11, Y2)
	STEP((DX)(R14*1), Y12, Y3)
	STEP((R8)(R14*1), Y13, Y4)
	STEP((R11)(R14*1), Y14, Y5)
	STEP((R12)(R14*1), Y15, Y6)
	STEP((R13)(R14*1), Y9, Y7)
	ADDQ $32, AX
	ADDQ $4, R14
	DECQ CX
	JNZ  linearStep

	MOVQ  bias+48(FP), CX
	TESTQ CX, CX
	JZ    linearAct
	BIAS(0, Y0)
	BIAS(1, Y1)
	BIAS(2, Y2)
	BIAS(3, Y3)
	BIAS(4, Y4)
	BIAS(5, Y5)
	BIAS(6, Y6)
	BIAS(7, Y7)

linearAct:
	MOVQ  relu+56(FP), CX
	TESTQ CX, CX
	JZ    linearStore
	RELU8

linearStore:
	TRANSPOSE8
	MOVQ 64(SP), R8
	MOVQ dstStride+8(FP), R11
	LEAQ (R11)(R11*2), BX
	LEAQ (R8)(R11*4), DX
	MOVQ cols+64(FP), CX
	CMPQ CX, $8
	JNE  linearMasked
	VMOVUPS Y8, (R8)
	VMOVUPS Y9, (R8)(R11*1)
	VMOVUPS Y10, (R8)(R11*2)
	VMOVUPS Y11, (R8)(BX*1)
	VMOVUPS Y12, (DX)
	VMOVUPS Y13, (DX)(R11*1)
	VMOVUPS Y14, (DX)(R11*2)
	VMOVUPS Y15, (DX)(BX*1)
	JMP     linearNext

linearMasked:
	LANEMASK(CX, Y0)
	VMASKMOVPS Y8, Y0, (R8)
	VMASKMOVPS Y9, Y0, (R8)(R11*1)
	VMASKMOVPS Y10, Y0, (R8)(R11*2)
	VMASKMOVPS Y11, Y0, (R8)(BX*1)
	VMASKMOVPS Y12, Y0, (DX)
	VMASKMOVPS Y13, Y0, (DX)(R11*1)
	VMASKMOVPS Y14, Y0, (DX)(R11*2)
	VMASKMOVPS Y15, Y0, (DX)(BX*1)

linearNext:
	LEAQ (DX)(R11*4), R8
	MOVQ R8, 64(SP)
	DECQ 72(SP)
	JNZ  linearPanel
	VZEROUPPER
	RET

// LANE is one work-item step in eight lanes whose weights differ: acc
// (Y15) += x·w, the product rounded before the add. x is one input,
// broadcast; col holds the eight neurons' weights for it.
#define LANE(x, col) \
	VBROADCASTSS x, Y8; \
	VMULPS       col, Y8, Y8; \
	VADDPS       Y8, Y15, Y15

// func neuronTileAVX2(dst, x, w *float32, wStride, blocks uintptr)
//
// One sample against eight neurons of Linear, a neuron per lane: the sum
// over p < 4·blocks of x[p]·w[t][p] in lane t of Y15. Each block of four
// inputs loads the eight weight rows as stored, rows t and t+4 in the
// two halves of one register, and transposes the two 4×4 blocks in
// lane — the first half of TRANSPOSE8 — into four columns whose lane t
// is neuron t; then, p ascending, one broadcast input times its column
// into the one accumulator. wStride is in bytes.
TEXT ·neuronTileAVX2(SB), NOSPLIT, $0-40
	MOVQ   x+8(FP), AX
	MOVQ   w+16(FP), SI
	MOVQ   wStride+24(FP), R9
	MOVQ   blocks+32(FP), CX
	LEAQ   (R9)(R9*2), R10
	LEAQ   (SI)(R9*4), DI
	VXORPS Y15, Y15, Y15

neuronBlock:
	VMOVUPS     (SI), X0
	VINSERTF128 $1, (DI), Y0, Y0
	VMOVUPS     (SI)(R9*1), X1
	VINSERTF128 $1, (DI)(R9*1), Y1, Y1
	VMOVUPS     (SI)(R9*2), X2
	VINSERTF128 $1, (DI)(R9*2), Y2, Y2
	VMOVUPS     (SI)(R10*1), X3
	VINSERTF128 $1, (DI)(R10*1), Y3, Y3
	VUNPCKLPS   Y1, Y0, Y4
	VUNPCKHPS   Y1, Y0, Y5
	VUNPCKLPS   Y3, Y2, Y6
	VUNPCKHPS   Y3, Y2, Y7
	VSHUFPS     $0x44, Y6, Y4, Y0
	VSHUFPS     $0xEE, Y6, Y4, Y1
	VSHUFPS     $0x44, Y7, Y5, Y2
	VSHUFPS     $0xEE, Y7, Y5, Y3
	LANE(0(AX), Y0)
	LANE(4(AX), Y1)
	LANE(8(AX), Y2)
	LANE(12(AX), Y3)
	ADDQ        $16, AX
	ADDQ        $16, SI
	ADDQ        $16, DI
	DECQ        CX
	JNZ         neuronBlock

	MOVQ    dst+0(FP), R8
	VMOVUPS Y15, (R8)
	VZEROUPPER
	RET

// func packTileAVX2(panel, in *float32, inStride, cols, panelStride, panels uintptr)
//
// Eight samples × cols ≤ 8 features of the batch, transposed into a
// panel: panel[p][l] = in[l][p] for l in 0…7, p < cols; then the same
// for the next eight samples into the panel panelStride on, `panels`
// times. Under eight features each row is loaded under a lane mask,
// which neither loads nor faults on the lanes it leaves, and only the
// cols panel rows are stored. Strides are in bytes.
TEXT ·packTileAVX2(SB), NOSPLIT, $0-48
	MOVQ panel+0(FP), DI
	MOVQ in+8(FP), R8
	MOVQ inStride+16(FP), AX
	MOVQ cols+24(FP), CX
	MOVQ panelStride+32(FP), SI
	MOVQ panels+40(FP), R10
	LEAQ (AX)(AX*2), BX

packPanel:
	LEAQ (R8)(AX*4), DX
	CMPQ CX, $8
	JNE  packMasked
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(AX*1), Y1
	VMOVUPS (R8)(AX*2), Y2
	VMOVUPS (R8)(BX*1), Y3
	VMOVUPS (DX), Y4
	VMOVUPS (DX)(AX*1), Y5
	VMOVUPS (DX)(AX*2), Y6
	VMOVUPS (DX)(BX*1), Y7
	JMP     packStore

packMasked:
	MOVQ       CX, R11
	LANEMASK(R11, Y8)
	VMASKMOVPS (R8), Y8, Y0
	VMASKMOVPS (R8)(AX*1), Y8, Y1
	VMASKMOVPS (R8)(AX*2), Y8, Y2
	VMASKMOVPS (R8)(BX*1), Y8, Y3
	VMASKMOVPS (DX), Y8, Y4
	VMASKMOVPS (DX)(AX*1), Y8, Y5
	VMASKMOVPS (DX)(AX*2), Y8, Y6
	VMASKMOVPS (DX)(BX*1), Y8, Y7

packStore:
	TRANSPOSE8
	VMOVUPS Y8, 0(DI)
	CMPQ    CX, $2
	JLT     packNext
	VMOVUPS Y9, 32(DI)
	CMPQ    CX, $3
	JLT     packNext
	VMOVUPS Y10, 64(DI)
	CMPQ    CX, $4
	JLT     packNext
	VMOVUPS Y11, 96(DI)
	CMPQ    CX, $5
	JLT     packNext
	VMOVUPS Y12, 128(DI)
	CMPQ    CX, $6
	JLT     packNext
	VMOVUPS Y13, 160(DI)
	CMPQ    CX, $7
	JLT     packNext
	VMOVUPS Y14, 192(DI)
	CMPQ    CX, $8
	JLT     packNext
	VMOVUPS Y15, 224(DI)

packNext:
	LEAQ (DX)(AX*4), R8
	ADDQ SI, DI
	DECQ R10
	JNZ  packPanel
	VZEROUPPER
	RET

// FIRSTROW seeds four pooling windows from the first of their two rows:
// acc holds eight adjacent convolution outputs of that row, the even
// lanes the windows' left columns, the odd lanes their right. MaxPool2D's
// scan: the first element seeds and a later one wins only if greater,
// which is VMAXPS with the running maximum as its second source (first,
// in Go's operand order). The maxima wait at `at`, where the window's
// result goes, for SECONDROW.
#define FIRSTROW(acc, accx, at) \
	VEXTRACTF128 $1, acc, X9; \
	VSHUFPS      $0x88, X9, accx, X10; \
	VSHUFPS      $0xDD, X9, accx, X11; \
	VMAXPS       X10, X11, X10; \
	VMOVUPS      X10, at

// SECONDROW finishes the scan with the windows' second row: left column,
// then right, each against the running maximum.
#define SECONDROW(acc, accx, at) \
	VEXTRACTF128 $1, acc, X9; \
	VSHUFPS      $0x88, X9, accx, X10; \
	VSHUFPS      $0xDD, X9, accx, X11; \
	VMOVUPS      at, X12; \
	VMAXPS       X12, X10, X12; \
	VMAXPS       X12, X11, X12; \
	VMOVUPS      X12, at

// func convPoolRowAVX2(dst *float32, dstPlane uintptr, in *float32, inW, inPlane, inC uintptr, f *float32, fVol, kH, kW uintptr, bias *float32, cols, window, relu uintptr)
//
// One row of pooled outputs for a tile of eight filters. Accumulator t
// (Y0…Y7) is filter t of the tile, its lanes eight adjacent columns of
// one convolution output row; it starts from the bias and takes the taps
// in (channel, filter row, filter column) order. window is 1 or 2: with
// 2, each block of eight columns of the window's two rows is reduced to
// four pooled outputs in MaxPool2D's scan order. The last block of a row
// overlaps the one before it. Strides and fVol are in bytes.
TEXT ·convPoolRowAVX2(SB), NOSPLIT, $0-112
	MOVQ fVol+56(FP), R9
	LEAQ (R9)(R9*2), R10
	XORQ R13, R13 // first pooled column of the block

convBlock:
	// A block yields 8/window pooled columns; the last one is pulled
	// back so that it ends with the row.
	MOVQ $8, AX
	MOVQ window+96(FP), CX
	SHRQ $1, CX
	SHRQ CX, AX
	MOVQ cols+88(FP), BX
	SUBQ AX, BX
	CMPQ R13, BX
	JLE  convBlockAt
	MOVQ BX, R13

convBlockAt:
	MOVQ dst+0(FP), R8
	LEAQ (R8)(R13*4), R8
	XORQ R14, R14 // row of the pooling window

convRow:
	// DX = &in[0][R14][R13·window]
	MOVQ  R13, AX
	IMULQ window+96(FP), AX
	MOVQ  in+16(FP), DX
	LEAQ  (DX)(AX*4), DX
	MOVQ  R14, AX
	IMULQ inW+24(FP), AX
	ADDQ  AX, DX

	MOVQ   bias+80(FP), AX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  AX, AX
	JZ     convTaps
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	VBROADCASTSS 16(AX), Y4
	VBROADCASTSS 20(AX), Y5
	VBROADCASTSS 24(AX), Y6
	VBROADCASTSS 28(AX), Y7

convTaps:
	MOVQ f+48(FP), SI
	LEAQ (SI)(R9*4), DI
	MOVQ inC+40(FP), R12

convChannel:
	MOVQ DX, BX
	MOVQ kH+64(FP), R11

convFilterRow:
	MOVQ BX, AX
	MOVQ kW+72(FP), CX

convTap:
	VMOVUPS (AX), Y8
	STEP8
	ADDQ $4, AX
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ  convTap

	ADDQ inW+24(FP), BX
	DECQ R11
	JNZ  convFilterRow

	ADDQ inPlane+32(FP), DX
	DECQ R12
	JNZ  convChannel

	MOVQ  relu+104(FP), AX
	TESTQ AX, AX
	JZ    convStore
	RELU8

convStore:
	MOVQ dstPlane+8(FP), AX
	LEAQ (AX)(AX*2), BX
	LEAQ (R8)(AX*4), DX
	MOVQ window+96(FP), CX
	CMPQ CX, $1
	JNE  convScan
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y2, (R8)(AX*2)
	VMOVUPS Y3, (R8)(BX*1)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, (DX)(AX*1)
	VMOVUPS Y6, (DX)(AX*2)
	VMOVUPS Y7, (DX)(BX*1)
	JMP     convNextBlock

convScan:
	// Even lanes are the windows' left columns, odd lanes their right.
	// MaxPool2D's scan: the first element seeds, a later one wins only
	// if greater — VMAXPS with the running maximum as second source.
	TESTQ R14, R14
	JNZ   convScanSecond

	FIRSTROW(Y0, X0, (R8))
	FIRSTROW(Y1, X1, (R8)(AX*1))
	FIRSTROW(Y2, X2, (R8)(AX*2))
	FIRSTROW(Y3, X3, (R8)(BX*1))
	FIRSTROW(Y4, X4, (DX))
	FIRSTROW(Y5, X5, (DX)(AX*1))
	FIRSTROW(Y6, X6, (DX)(AX*2))
	FIRSTROW(Y7, X7, (DX)(BX*1))
	INCQ R14
	JMP  convRow

convScanSecond:
	SECONDROW(Y0, X0, (R8))
	SECONDROW(Y1, X1, (R8)(AX*1))
	SECONDROW(Y2, X2, (R8)(AX*2))
	SECONDROW(Y3, X3, (R8)(BX*1))
	SECONDROW(Y4, X4, (DX))
	SECONDROW(Y5, X5, (DX)(AX*1))
	SECONDROW(Y6, X6, (DX)(AX*2))
	SECONDROW(Y7, X7, (DX)(BX*1))

convNextBlock:
	// R13 += 8/window
	MOVQ $8, AX
	MOVQ window+96(FP), CX
	SHRQ $1, CX
	SHRQ CX, AX
	ADDQ AX, R13
	CMPQ R13, cols+88(FP)
	JLT  convBlock
	VZEROUPPER
	RET

package workloads

// hasAVX2 selects MakeBlob's 16-lane fill, once, from what the CPU and
// the operating system report.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU has AVX2 and the operating system
// saves the YMM registers across context switches (CPUID leaves 1 and
// 7, XGETBV).
func cpuHasAVX2() bool

// fill16 fills rows rows of each of 16 lanes, lane k starting at
// dst+k*stride, stepping lane k's xorshift state x[k]; it leaves each
// lane's final state in x. rows must be at least 1.
//
//go:noescape
func fill16(dst *byte, stride, rows int, x *[16]uint64)

// fill16Rows bounds the rows per lane of one fill16 call: 16 lanes of
// 64 rows are 64 KiB, tens of microseconds, so the goroutine reaches a
// preemption point between calls even on a 64 MiB blob.
const fill16Rows = 64

// fillLanes16 fills the first 16·per full rows of b as 16 contiguous
// lanes of per rows each, where per is b's full rows divided by 16, and
// returns the bytes it filled and the last lane's final state.
func fillLanes16(b []byte, seed uint64) (int, uint64) {
	per := len(b) / blobRow / 16
	if per == 0 {
		return 0, seed
	}
	var x [16]uint64
	x[0] = seed
	for k := 1; k < len(x); k++ {
		x[k] = jump(x[k-1], per)
	}
	stride := per * blobRow
	for row := 0; row < per; row += fill16Rows {
		fill16(&b[row*blobRow], stride, min(fill16Rows, per-row), &x)
	}
	return 16 * stride, x[15]
}

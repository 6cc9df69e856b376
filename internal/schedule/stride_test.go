package schedule

import "testing"

// stridedLengths are the walk lengths TestStridedKernelsMatchLoop runs:
// every length up to four unrolled iterations plus one, so the body runs
// zero to four times followed by every tail length, and one long walk.
func stridedLengths() []int {
	ls := make([]int, 0, 35)
	for m := 0; m <= 33; m++ {
		ls = append(ls, m)
	}
	return append(ls, 1000)
}

// TestStridedKernelsMatchLoop compares gather, scatter and, through
// one-run plans whose window is split in two, PackSliceRange,
// UnpackSliceRange and CopySliceRange (strided on either side) against
// the plain per-element loop, for every element kind the kernels dispatch
// on and one they do not. Each walk has sentinel elements before and
// after it on both sides, and every buffer is compared whole, so a write
// outside the walk fails. A walk one element past the end of its buffer
// panics.
func TestStridedKernelsMatchLoop(t *testing.T) {
	testStridedKernels(t, f64Val)
	testStridedKernels(t, f32Val)
	testStridedKernels(t, i64Val)
	testStridedKernels(t, i32Val)
	testStridedKernels(t, func(i int) uint64 { return uint64(i) + 1 })
	testStridedKernels(t, func(i int) uint32 { return uint32(i) + 1 })
	testStridedKernels(t, c128Val)
}

// Distinct values for distinct arguments, one element kind each.
func f64Val(i int) float64     { return float64(i) + 0.5 }
func f32Val(i int) float32     { return float32(i) + 0.5 }
func i64Val(i int) int64       { return int64(i)<<32 | int64(i) }
func i32Val(i int) int32       { return int32(i) + 1 }
func c128Val(i int) complex128 { return complex(float64(i), -1) }

func testStridedKernels[T comparable](t *testing.T, val func(int) T) {
	for _, stride := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17} {
		for _, m := range stridedLengths() {
			for _, lead := range []int{0, 5} {
				for _, k := range []int{0, 1, m / 2, m - 1} {
					if k >= 0 && k <= m {
						checkStrided(t, val, m, stride, lead, k)
					}
				}
			}
		}
	}
}

// FuzzStridedKernels is TestStridedKernelsMatchLoop over fuzzer-chosen
// element kinds, strides, lengths, leading sentinels and window splits.
func FuzzStridedKernels(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint16(17), uint8(0), uint16(8))
	f.Add(uint8(1), uint8(2), uint16(1000), uint8(3), uint16(501))
	f.Add(uint8(2), uint8(16), uint16(9), uint8(7), uint16(1))
	f.Add(uint8(4), uint8(3), uint16(33), uint8(1), uint16(32))
	f.Fuzz(func(t *testing.T, kind, stride uint8, m uint16, lead uint8, split uint16) {
		s, n, l := 1+int(stride)%32, int(m)%2048, int(lead)%8
		k := int(split) % (n + 1)
		switch kind % 5 {
		case 0:
			checkStrided(t, f64Val, n, s, l, k)
		case 1:
			checkStrided(t, f32Val, n, s, l, k)
		case 2:
			checkStrided(t, i64Val, n, s, l, k)
		case 3:
			checkStrided(t, i32Val, n, s, l, k)
		default:
			checkStrided(t, c128Val, n, s, l, k)
		}
	})
}

// checkStrided runs every kernel over a walk of m elements stride apart
// that starts after lead sentinel elements of its buffer (the contiguous
// side likewise), the windows split at packed element k, and compares
// the buffers whole against the plain loop's. val must give distinct
// values for distinct arguments.
func checkStrided[T comparable](t *testing.T, val func(int) T, m, stride, lead, k int) {
	t.Helper()
	fill := func(n, base int) []T {
		b := make([]T, n)
		for i := range b {
			b[i] = val(base + i)
		}
		return b
	}
	span := lead + max(m-1, 0)*stride + 1 // the strided walk's end, exclusive
	strided := func() []T { return fill(span+lead+1, 0) }
	contig := func() []T { return fill(lead+m+lead+1, 1<<20) }
	loopGather := func(out, local []T, src int) {
		for j := range out {
			out[j] = local[src]
			src += stride
		}
	}
	loopScatter := func(local, data []T, dst int) {
		for _, v := range data {
			local[dst] = v
			dst += stride
		}
	}
	same := func(what string, got, want []T) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T %s (m %d, stride %d, lead %d, split %d): [%d] = %v, the loop gives %v",
					got[0], what, m, stride, lead, k, i, got[i], want[i])
			}
		}
	}
	// One run each way: strided in the source (pack side) and strided in
	// the destination (unpack side).
	packPlan := PairPlan{Runs: []Run{{SrcOff: lead, DstOff: lead, N: 1, Count: m, SrcStride: stride, DstStride: 1}}, Elems: m}
	unpackPlan := PairPlan{Runs: []Run{{SrcOff: lead, DstOff: lead, N: 1, Count: m, SrcStride: 1, DstStride: stride}}, Elems: m}

	local, data := strided(), contig()
	want := contig()
	loopGather(want[lead:lead+m], local, lead)
	got := contig()
	gather(got[lead:lead+m], local, lead, stride)
	same("gather", got, want)
	got = contig()
	PackSliceRange(packPlan, local, got[lead:lead+k], 0)
	PackSliceRange(packPlan, local, got[lead+k:lead+m], k)
	same("PackSliceRange", got, want)
	got = contig()
	CopySliceRange(packPlan, local, got, 0, k)
	CopySliceRange(packPlan, local, got, k, m-k)
	same("CopySliceRange (strided source)", got, want)

	want = strided()
	loopScatter(want, data[lead:lead+m], lead)
	got = strided()
	scatter(got, data[lead:lead+m], lead, stride)
	same("scatter", got, want)
	got = strided()
	UnpackSliceRange(unpackPlan, got, data[lead:lead+k], 0)
	UnpackSliceRange(unpackPlan, got, data[lead+k:lead+m], k)
	same("UnpackSliceRange", got, want)
	got = strided()
	CopySliceRange(unpackPlan, data, got, 0, k)
	CopySliceRange(unpackPlan, data, got, k, m-k)
	same("CopySliceRange (strided destination)", got, want)

	if m == 0 {
		return
	}
	short := local[: span-1 : span-1] // the walk's last element is one past the end
	mustPanic(t, "gather", func() { gather(make([]T, m), short, lead, stride) })
	mustPanic(t, "scatter", func() { scatter(short, data[lead:lead+m], lead, stride) })
	mustPanic(t, "PackSliceRange", func() { PackSliceRange(packPlan, short, make([]T, m), 0) })
	mustPanic(t, "UnpackSliceRange", func() { UnpackSliceRange(unpackPlan, short, data[lead:lead+m], 0) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: a walk one element past the end of its buffer did not panic", what)
		}
	}()
	f()
}

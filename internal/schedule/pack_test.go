package schedule

import (
	"math/rand"
	"testing"
	"unsafe"

	"mxn/internal/dad"
)

// packByCopy and unpackByCopy are the plainest kernels there are: one
// copy call per block, blocks taken in packed order. They stay here as
// the reference the vector kernels are compared against.
func packByCopy[T any](plan PairPlan, local, out []T) {
	k := 0
	for _, r := range blocksOf(plan) {
		copy(out[k:k+r.N], local[r.SrcOff:r.SrcOff+r.N])
		k += r.N
	}
}

func unpackByCopy[T any](plan PairPlan, local, data []T) {
	k := 0
	for _, r := range blocksOf(plan) {
		copy(local[r.DstOff:r.DstOff+r.N], data[k:k+r.N])
		k += r.N
	}
}

// TestPackUnitRunFastPathMatchesCopyKernel runs both kernels over every
// pair of the planner's randomized layout corpus (same generator and seed
// as TestDifferentialFastVsEnumerator) — cyclic axes give vectors of
// one-element blocks, block-cyclic axes vectors of longer blocks, block
// and collapsed axes contiguous runs, and most plans mix them. The window
// kernels at offset 0 are a third input: the engine's whole-message call.
func TestPackUnitRunFastPathMatchesCopyKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unit, long := 0, 0 // vectors of one-element blocks, and of longer ones
	for trial := 0; trial < 400; trial++ {
		src, dst := randomPair(t, rng)
		s := mustBuild(t, src, dst)
		for _, p := range s.Pairs {
			for _, r := range p.Runs {
				switch {
				case r.Count > 1 && r.N == 1:
					unit++
				case r.Count > 1:
					long++
				}
			}
			local := make([]float64, src.LocalCount(p.SrcRank))
			for i := range local {
				local[i] = float64(trial*1000 + i)
			}
			got, want := make([]float64, p.Elems), make([]float64, p.Elems)
			PackSlice(p, local, got)
			packByCopy(p, local, want)
			gotDst, wantDst := make([]float64, dst.LocalCount(p.DstRank)), make([]float64, dst.LocalCount(p.DstRank))
			UnpackSlice(p, gotDst, got)
			unpackByCopy(p, wantDst, want)
			ranged, rangedDst := make([]float64, p.Elems), make([]float64, len(wantDst))
			PackSliceRange(p, local, ranged, 0)
			UnpackSliceRange(p, rangedDst, ranged, 0)
			for i := range want {
				if got[i] != want[i] || ranged[i] != want[i] {
					t.Fatalf("trial %d (%s → %s) pair %d→%d: packed[%d] = %v (window at 0: %v), copy kernel says %v",
						trial, src.Key(), dst.Key(), p.SrcRank, p.DstRank, i, got[i], ranged[i], want[i])
				}
			}
			for i := range wantDst {
				if gotDst[i] != wantDst[i] || rangedDst[i] != wantDst[i] {
					t.Fatalf("trial %d (%s → %s) pair %d→%d: unpacked[%d] = %v (window at 0: %v), copy kernel says %v",
						trial, src.Key(), dst.Key(), p.SrcRank, p.DstRank, i, gotDst[i], rangedDst[i], wantDst[i])
				}
			}
		}
	}
	if unit < 100 || long < 100 {
		t.Fatalf("corpus has %d unit-block vectors and %d longer-block ones — generator drifted", unit, long)
	}
}

// copyAllWindows is the largest pair whose every window
// TestCopySliceRangeMatchesPackUnpack copies: checking all of a pair's
// windows costs the cube of its size.
const copyAllWindows = 48

// CopySliceRange is PackSliceRange followed by UnpackSliceRange in one
// pass. Over every pair of the randomized layout corpus (same generator and
// seed as TestDifferentialFastVsEnumerator) and for every element kind,
// each window [off, off+n) the copy kernel moves lands where packing and
// unpacking that window puts it, and nothing else in the destination is
// written. A pair of up to copyAllWindows elements is checked on every
// window, with every one of its destination elements compared after each;
// a larger one on every window of one to three elements and on the windows
// tiling it at widths around its block size, half its size plus one and
// its whole size, with the window and the elements either side of it
// compared after each. Each pair's destination is scanned whole at the end
// for a write no window accounts for.
func TestCopySliceRangeMatchesPackUnpack(t *testing.T) {
	testCopyWindows(t, func(i int) float64 { return float64(i) + 0.5 })
	testCopyWindows(t, func(i int) float32 { return float32(i) + 0.5 })
	testCopyWindows(t, func(i int) int64 { return int64(i) + 1 })
	testCopyWindows(t, func(i int) int32 { return int32(i) + 1 })
	testCopyWindows(t, func(i int) complex128 { return complex(float64(i), -1) })
}

func testCopyWindows[T comparable](t *testing.T, val func(int) T) {
	rng := rand.New(rand.NewSource(7))
	var zero T
	windows := 0
	for trial := 0; trial < 400; trial++ {
		src, dst := randomPair(t, rng)
		s := mustBuild(t, src, dst)
		for _, p := range s.Pairs {
			local := make([]T, src.LocalCount(p.SrcRank))
			for i := range local {
				local[i] = val(i) // never the zero value, which marks "unwritten"
			}
			// dpos[k] is where packed element k lands in the destination,
			// by the reference kernels.
			seq, at := make([]int, p.Elems), make([]int, dst.LocalCount(p.DstRank))
			for k := range seq {
				seq[k] = k + 1
			}
			UnpackSlice(p, at, seq)
			dpos := make([]int, p.Elems)
			for d, k := range at {
				if k > 0 {
					dpos[k-1] = d
				}
			}
			got, want, buf := make([]T, len(at)), make([]T, len(at)), make([]T, p.Elems)
			check := func(off, n int) {
				CopySliceRange(p, local, got, off, n)
				PackSliceRange(p, local, buf[:n], off)
				UnpackSliceRange(p, want, buf[:n], off)
				lo, hi := 0, p.Elems // the packed positions compared
				if p.Elems > copyAllWindows {
					lo, hi = max(off-1, 0), min(off+n+1, p.Elems)
				}
				for _, d := range dpos[lo:hi] {
					if got[d] != want[d] {
						t.Fatalf("trial %d (%s → %s) pair %d→%d window [%d, %d): dst[%d] = %v, pack+unpack gives %v",
							trial, src.Key(), dst.Key(), p.SrcRank, p.DstRank, off, off+n, d, got[d], want[d])
					}
				}
				for _, d := range dpos[off : off+n] {
					got[d], want[d] = zero, zero
				}
				windows++
			}
			if p.Elems <= copyAllWindows {
				for off := 0; off <= p.Elems; off++ {
					for n := 0; off+n <= p.Elems; n++ {
						check(off, n)
					}
				}
			} else {
				for off := 0; off < p.Elems; off++ {
					for n := 1; n <= 3 && off+n <= p.Elems; n++ {
						check(off, n)
					}
				}
				block := 0
				for _, r := range p.Runs {
					block = max(block, r.N)
				}
				for _, w := range []int{block - 1, block, block + 1, p.Elems/2 + 1, p.Elems} {
					for off := 0; w > 0 && off < p.Elems; off += w {
						check(off, min(w, p.Elems-off))
					}
				}
			}
			for d, v := range got {
				if v != zero {
					t.Fatalf("trial %d (%s → %s) pair %d→%d: dst[%d] = %v written by no window's pack+unpack",
						trial, src.Key(), dst.Key(), p.SrcRank, p.DstRank, d, v)
				}
			}
		}
	}
	if windows < 100_000 {
		t.Fatalf("only %d windows checked — the corpus drifted", windows)
	}
}

// workloadShapes are the layouts of the coupling benchmark's workloads,
// two ranks a side: prmi_tcp's 64 KiB field (cyclic → block, and block →
// cyclic for the reply), small_tcp's 16 KiB array (block → cyclic) and
// bulk_tcp's 8 MiB matrix (block rows → block columns), plus a 64 KiB
// float32 field cyclic → block. A cyclic → block pair unpacks with a
// stride of 2 and a block → cyclic pair packs with one.
func workloadShapes(t testing.TB) []struct {
	name     string
	src, dst *dad.Template
	float32  bool // the benchmark moves float32 elements, not float64
} {
	return []struct {
		name     string
		src, dst *dad.Template
		float32  bool
	}{
		{"prmi-cyclic-block", tpl(t, []int{8192}, dad.CyclicAxis(2)), tpl(t, []int{8192}, dad.BlockAxis(2)), false},
		{"prmi-block-cyclic", tpl(t, []int{8192}, dad.BlockAxis(2)), tpl(t, []int{8192}, dad.CyclicAxis(2)), false},
		{"small-block-cyclic", tpl(t, []int{2048}, dad.BlockAxis(2)), tpl(t, []int{2048}, dad.CyclicAxis(2)), false},
		{"bulk-rows-cols", tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis()),
			tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2)), false},
		{"f32-cyclic-block", tpl(t, []int{16384}, dad.CyclicAxis(2)), tpl(t, []int{16384}, dad.BlockAxis(2)), true},
	}
}

// Each workload shape's regular rank pairs plan as one vector run apiece,
// from both planners, and the run moves what the plan says.
func TestWorkloadShapesPlanOneRunPerPair(t *testing.T) {
	for _, w := range workloadShapes(t) {
		for _, opts := range []BuildOpts{{}, {DisableFastPath: true}} {
			s, err := BuildWith(w.src, w.dst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Pairs) != 4 {
				t.Fatalf("%s: %d pairs, want 4", w.name, len(s.Pairs))
			}
			for _, p := range s.Pairs {
				if len(p.Runs) != 1 || p.Runs[0].Len() != p.Elems {
					t.Fatalf("%s (fast path %v): pair %d→%d plans as %d runs %+v, want one of %d elements",
						w.name, s.FastPath(), p.SrcRank, p.DstRank, len(p.Runs), p.Runs, p.Elems)
				}
			}
			verifyRedistribution(t, w.dst, executeLocally(s, fillByGlobal(w.src)))
		}
	}
}

// The kernels over every pair of each workload shape's plan: the per-step
// pack and unpack cost of a reused schedule, and the one-pass copy that
// replaces both where the receiver can read the source.
func BenchmarkPackSlice(b *testing.B) {
	for _, w := range workloadShapes(b) {
		s := mustBuild(b, w.src, w.dst)
		if w.float32 {
			benchPackSlice[float32](b, w.name, s)
		} else {
			benchPackSlice[float64](b, w.name, s)
		}
	}
}

func benchPackSlice[T float32 | float64](b *testing.B, name string, s *Schedule) {
	size := int64(unsafe.Sizeof(T(0))) * int64(s.TotalElems())
	srcLocals := make([][]T, s.Src.NumProcs())
	for r := range srcLocals {
		srcLocals[r] = make([]T, s.Src.LocalCount(r))
	}
	dstLocals := make([][]T, s.Dst.NumProcs())
	for r := range dstLocals {
		dstLocals[r] = make([]T, s.Dst.LocalCount(r))
	}
	bufs := make([][]T, len(s.Pairs))
	for i, p := range s.Pairs {
		bufs[i] = make([]T, p.Elems)
	}
	b.Run(name+"/pack", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			for j, p := range s.Pairs {
				PackSlice(p, srcLocals[p.SrcRank], bufs[j])
			}
		}
	})
	b.Run(name+"/unpack", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			for j, p := range s.Pairs {
				UnpackSlice(p, dstLocals[p.DstRank], bufs[j])
			}
		}
	})
	b.Run(name+"/copy", func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			for _, p := range s.Pairs {
				CopySliceRange(p, srcLocals[p.SrcRank], dstLocals[p.DstRank], 0, p.Elems)
			}
		}
	})
}

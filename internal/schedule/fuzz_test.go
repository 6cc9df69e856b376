package schedule

import (
	"testing"

	"mxn/internal/dad"
)

// fuzzSpec consumes fuzzer bytes as a stream of small bounded integers;
// an exhausted stream yields zeros so every input decodes to some config.
type fuzzSpec struct {
	data []byte
	pos  int
}

func (s *fuzzSpec) next(mod int) int {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b) % mod
}

// fuzzAxis decodes one axis distribution from the stream, restricted to
// the regular kinds the closed-form planner classifies.
func fuzzAxis(s *fuzzSpec, n int) dad.AxisDist {
	p := 1 + s.next(5)
	switch s.next(5) {
	case 0:
		return dad.CollapsedAxis()
	case 1:
		return dad.BlockAxis(p)
	case 2:
		return dad.CyclicAxis(p)
	case 3:
		return dad.BlockCyclicAxis(p, 1+s.next(5))
	default:
		sizes := make([]int, p)
		left := n
		for i := 0; i < p-1; i++ {
			take := s.next(left + 1)
			sizes[i] = take
			left -= take
		}
		sizes[p-1] = left
		return dad.GenBlockAxis(sizes)
	}
}

// FuzzPlanEquivalence cross-checks the closed-form fast path against the
// patch-enumeration planner on fuzzer-chosen template pairs: identical
// canonical schedules, the same packed order (so the same bytes on the
// wire) and the same runs, full coverage, kernels that pack and unpack
// each pair in that packed order, no panics. Pairs the fast path
// declines (incompatible strided block sizes) still assert a clean
// fallback.
func FuzzPlanEquivalence(f *testing.F) {
	f.Add([]byte{0, 23, 3, 1, 2, 2})                      // 1-D block(4) → cyclic(3)
	f.Add([]byte{1, 11, 13, 1, 2, 2, 3, 2, 3, 0, 4, 10})  // 2-D mixed strided
	f.Add([]byte{2, 4, 5, 13, 0, 0, 1, 3, 2, 1, 3, 2, 1}) // 3-D with block-cyclic
	f.Add([]byte{0, 36, 2, 3, 2, 2, 3, 4})                // mismatched strided b: fallback
	// Vectors of at least eight one-element blocks, so the strided
	// kernels' unrolled body runs.
	f.Add([]byte{0, 23, 1, 2, 0, 0})                 // 1-D 24: cyclic(2) → collapsed
	f.Add([]byte{0, 23, 2, 2, 0, 0})                 // 1-D 24: cyclic(3) → collapsed
	f.Add([]byte{0, 23, 0, 0, 1, 2})                 // 1-D 24: collapsed → cyclic(2)
	f.Add([]byte{1, 23, 23, 1, 2, 0, 0, 0, 0, 2, 2}) // 2-D 24×24: (cyclic(2), -) → (-, cyclic(3))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzSpec{data: data}
		na := 1 + s.next(3)
		dims := make([]int, na)
		for a := range dims {
			dims[a] = 1 + s.next(24)
		}
		mkAxes := func() []dad.AxisDist {
			axes := make([]dad.AxisDist, na)
			for a := range axes {
				axes[a] = fuzzAxis(s, dims[a])
			}
			return axes
		}
		src, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatalf("fuzz generator produced invalid src template: %v", err)
		}
		dst, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatalf("fuzz generator produced invalid dst template: %v", err)
		}

		fast, err := Build(src, dst)
		if err != nil {
			t.Fatalf("Build(%s, %s): %v", src.Key(), dst.Key(), err)
		}
		if fast.FastPath() != src.ClosedFormPair(dst) {
			t.Fatalf("fast-path engagement %v disagrees with ClosedFormPair %v for %s → %s",
				fast.FastPath(), src.ClosedFormPair(dst), src.Key(), dst.Key())
		}
		if fast.TotalElems() != src.Size() {
			t.Fatalf("%s → %s: plan moves %d of %d elements",
				src.Key(), dst.Key(), fast.TotalElems(), src.Size())
		}
		checkCoverage(t, src.Key()+" → "+dst.Key(), fast)
		checkKernels(t, src.Key()+" → "+dst.Key(), fast)
		if !fast.FastPath() {
			return
		}

		ref, err := BuildWith(src, dst, BuildOpts{DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		diffSchedules(t, src.Key()+" → "+dst.Key(), fast, ref)
	})
}

// checkKernels packs and unpacks every pair of s and checks that each
// packed element came from, and lands at, the place the pair's packed
// order names.
func checkKernels(t *testing.T, label string, s *Schedule) {
	t.Helper()
	for _, p := range s.Pairs {
		local := make([]float64, s.Src.LocalCount(p.SrcRank))
		for i := range local {
			local[i] = float64(i)
		}
		out, back := make([]float64, p.Elems), make([]float64, s.Dst.LocalCount(p.DstRank))
		PackSlice(p, local, out)
		UnpackSlice(p, back, out)
		for j, o := range packedOrder(p) {
			if out[j] != float64(o[0]) || back[o[1]] != float64(o[0]) {
				t.Fatalf("%s: pair %d→%d packed element %d is src %v and lands as %v, want src %d at dst %d",
					label, p.SrcRank, p.DstRank, j, out[j], back[o[1]], o[0], o[1])
			}
		}
	}
}

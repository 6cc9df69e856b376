package schedule

import (
	"math/rand"
	"testing"

	"mxn/internal/dad"
)

// splitPlans collects pairwise plans with interesting run structure:
// multi-run plans whose runs the chunk windows must split mid-way, plans
// of nothing but unit runs (the kernels' direct-assignment path), and
// plans that mix unit runs with longer ones.
func splitPlans(t *testing.T) []struct {
	plan PairPlan
	src  *dad.Template
} {
	t.Helper()
	var out []struct {
		plan PairPlan
		src  *dad.Template
	}
	worlds := []struct{ src, dst *dad.Template }{
		{tpl(t, []int{64}, dad.BlockAxis(4)), tpl(t, []int{64}, dad.CyclicAxis(4))},
		{tpl(t, []int{60}, dad.BlockCyclicAxis(3, 5)), tpl(t, []int{60}, dad.BlockAxis(4))},
		{tpl(t, []int{8, 8}, dad.BlockAxis(2), dad.CollapsedAxis()), tpl(t, []int{8, 8}, dad.CollapsedAxis(), dad.BlockAxis(2))},
		{tpl(t, []int{64}, dad.CyclicAxis(4)), tpl(t, []int{64}, dad.BlockAxis(4))},
		{tpl(t, []int{6, 7}, dad.CyclicAxis(2), dad.CollapsedAxis()), tpl(t, []int{6, 7}, dad.BlockAxis(2), dad.BlockCyclicAxis(2, 3))},
	}
	for _, w := range worlds {
		s := mustBuild(t, w.src, w.dst)
		for _, p := range s.Pairs {
			if p.Elems > 0 {
				out = append(out, struct {
					plan PairPlan
					src  *dad.Template
				}{p, w.src})
			}
		}
	}
	return out
}

// Consecutive PackSliceRange windows tiling [0, Elems) must produce the
// same packed stream as one whole-message PackSlice, for every window
// size — including sizes that split individual runs mid-way — and the
// mirrored UnpackSliceRange windows must reproduce UnpackSlice.
func TestSliceRangeTilesWholeMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range splitPlans(t) {
		p := tc.plan
		local := make([]float64, tc.src.LocalCount(p.SrcRank))
		for i := range local {
			local[i] = rng.Float64()
		}
		want := make([]float64, p.Elems)
		PackSlice(p, local, want)

		for _, win := range []int{1, 2, 3, p.Elems/2 + 1, p.Elems} {
			got := make([]float64, p.Elems)
			for off := 0; off < p.Elems; off += win {
				n := win
				if off+n > p.Elems {
					n = p.Elems - off
				}
				PackSliceRange(p, local, got[off:off+n], off)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pair %d→%d window %d: packed elem %d = %v, want %v",
						p.SrcRank, p.DstRank, win, i, got[i], want[i])
				}
			}

			// Unpack the same windows into a fresh destination buffer and
			// compare against the whole-message unpack.
			dstWant := make([]float64, maxRunEnd(p))
			UnpackSlice(p, dstWant, want)
			dstGot := make([]float64, len(dstWant))
			for off := 0; off < p.Elems; off += win {
				n := win
				if off+n > p.Elems {
					n = p.Elems - off
				}
				UnpackSliceRange(p, dstGot, want[off:off+n], off)
			}
			for i := range dstWant {
				if dstGot[i] != dstWant[i] {
					t.Fatalf("pair %d→%d window %d: unpacked elem %d = %v, want %v",
						p.SrcRank, p.DstRank, win, i, dstGot[i], dstWant[i])
				}
			}
		}
	}
}

// maxRunEnd sizes a destination buffer big enough for every run.
func maxRunEnd(p PairPlan) int {
	end := 0
	for _, r := range p.Runs {
		if e := r.DstOff + r.N; e > end {
			end = e
		}
	}
	return end
}

// A zero-length window is a no-op wherever it lands.
func TestSliceRangeZeroWindow(t *testing.T) {
	tc := splitPlans(t)[0]
	p := tc.plan
	local := make([]float64, tc.src.LocalCount(p.SrcRank))
	PackSliceRange(p, local, nil, 0)
	PackSliceRange(p, local, nil, p.Elems/2)
	UnpackSliceRange(p, make([]float64, maxRunEnd(p)), nil, 0)
}

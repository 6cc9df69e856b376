package schedule

import (
	"math/rand"
	"testing"

	"mxn/internal/dad"
)

// splitPlans collects pairwise plans with interesting run structure:
// vectors of one-element blocks (the kernels' strided loop), vectors of
// longer blocks the chunk windows must split mid-block, multi-run plans,
// and plans that mix contiguous runs with vectors.
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
		{tpl(t, []int{48, 40}, dad.BlockAxis(2), dad.CollapsedAxis()), tpl(t, []int{48, 40}, dad.CollapsedAxis(), dad.BlockAxis(2))},
		{tpl(t, []int{61}, dad.BlockCyclicAxis(2, 4)), tpl(t, []int{61}, dad.BlockCyclicAxis(3, 4))},
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
// size — sizes 1, 2 and 3, one less and one more than a block (so
// boundaries land mid-block and mid-vector), half the message plus one,
// and the whole — and the mirrored UnpackSliceRange windows must
// reproduce UnpackSlice. The plans are the directed splitPlans and every
// pair of the randomized layout corpus; for a closed-form corpus pair the
// packed stream must also equal the one the enumerating planner's plan
// packs, which is what keeps the bytes on the wire the same whichever
// planner built the schedule.
func TestSliceRangeTilesWholeMessage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(label string, p PairPlan, src *dad.Template, ref *PairPlan) {
		local := make([]float64, src.LocalCount(p.SrcRank))
		for i := range local {
			local[i] = rng.Float64()
		}
		want := make([]float64, p.Elems)
		PackSlice(p, local, want)
		if ref != nil {
			refPacked := make([]float64, ref.Elems)
			PackSlice(*ref, local, refPacked)
			for i := range want {
				if want[i] != refPacked[i] {
					t.Fatalf("%s pair %d→%d: packed elem %d = %v, enumerating planner's plan packs %v",
						label, p.SrcRank, p.DstRank, i, want[i], refPacked[i])
				}
			}
		}
		block := 0
		for _, r := range p.Runs {
			block = max(block, r.N)
		}
		for _, win := range []int{1, 2, 3, block - 1, block + 1, p.Elems/2 + 1, p.Elems} {
			if win < 1 {
				continue
			}
			got := make([]float64, p.Elems)
			for off := 0; off < p.Elems; off += win {
				n := min(win, p.Elems-off)
				PackSliceRange(p, local, got[off:off+n], off)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s pair %d→%d window %d: packed elem %d = %v, want %v",
						label, p.SrcRank, p.DstRank, win, i, got[i], want[i])
				}
			}

			// Unpack the same windows into a fresh destination buffer and
			// compare against the whole-message unpack.
			dstWant := make([]float64, maxRunEnd(p))
			UnpackSlice(p, dstWant, want)
			dstGot := make([]float64, len(dstWant))
			for off := 0; off < p.Elems; off += win {
				n := min(win, p.Elems-off)
				UnpackSliceRange(p, dstGot, want[off:off+n], off)
			}
			for i := range dstWant {
				if dstGot[i] != dstWant[i] {
					t.Fatalf("%s pair %d→%d window %d: unpacked elem %d = %v, want %v",
						label, p.SrcRank, p.DstRank, win, i, dstGot[i], dstWant[i])
				}
			}
		}
	}
	for _, tc := range splitPlans(t) {
		check("directed", tc.plan, tc.src, nil)
	}
	for trial := 0; trial < 400; trial++ {
		src, dst := randomPair(t, rng)
		s := mustBuild(t, src, dst)
		var ref *Schedule
		if s.FastPath() {
			var err error
			if ref, err = BuildWith(src, dst, BuildOpts{DisableFastPath: true}); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range s.Pairs {
			var rp *PairPlan
			if ref != nil {
				rp = &ref.Pairs[i]
			}
			check(src.Key()+" → "+dst.Key(), p, src, rp)
		}
	}
}

// maxRunEnd sizes a destination buffer big enough for every run.
func maxRunEnd(p PairPlan) int {
	end := 0
	for _, r := range blocksOf(p) {
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

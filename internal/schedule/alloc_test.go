package schedule

import (
	"testing"

	"mxn/internal/dad"
	"mxn/internal/obs"
)

// An uncached closed-form Build — a new template pair, or the re-plan
// after a resize or a death — allocates as often for 2,048 communicating
// pairs as for 4: its counting pass sizes the pair, run and index tables,
// so each is one allocation whatever the number of pairs and runs. A
// planner that grows any of them pair by pair fails this.
func TestUncachedFastBuildAllocsIndependentOfPairs(t *testing.T) {
	obs.DisableTracing()
	const n = 1 << 14
	allocs := func(m, nn int) float64 {
		src := tpl(t, []int{n}, dad.BlockAxis(m))
		dst := tpl(t, []int{n}, dad.CyclicAxis(nn))
		s := mustBuild(t, src, dst)
		if !s.FastPath() {
			t.Fatalf("M%d×N%d: closed-form pair did not take the fast path", m, nn)
		}
		if s.NumMessages() != m*nn {
			t.Fatalf("M%d×N%d: %d pairs, want %d", m, nn, s.NumMessages(), m*nn)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Build(src, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2, 2), allocs(32, 64)
	t.Logf("uncached Build: %v allocations at M2×N2, %v at M32×N64", small, large)
	if large != small {
		t.Fatalf("uncached Build allocates %v times for 2,048 pairs but %v for 4: something is allocated per pair",
			large, small)
	}
}

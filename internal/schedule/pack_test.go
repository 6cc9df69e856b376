package schedule

import (
	"math/rand"
	"testing"

	"mxn/internal/dad"
)

// packByCopy and unpackByCopy are the kernels PackSlice and UnpackSlice
// had before the unit-run fast path: one copy call per run. They stay here
// as the reference the fast path is compared against.
func packByCopy[T any](plan PairPlan, local, out []T) {
	k := 0
	for _, r := range plan.Runs {
		copy(out[k:k+r.N], local[r.SrcOff:r.SrcOff+r.N])
		k += r.N
	}
}

func unpackByCopy[T any](plan PairPlan, local, data []T) {
	k := 0
	for _, r := range plan.Runs {
		copy(local[r.DstOff:r.DstOff+r.N], data[k:k+r.N])
		k += r.N
	}
}

// TestPackUnitRunFastPathMatchesCopyKernel runs both kernels over every
// pair of the planner's randomized layout corpus (same generator and seed
// as TestDifferentialFastVsEnumerator) — cyclic axes give runs of one
// element, block and collapsed axes long ones, and most plans mix both.
// The window kernels at offset 0 are a third input: the engine's
// whole-message call.
func TestPackUnitRunFastPathMatchesCopyKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unit, long := 0, 0
	for trial := 0; trial < 400; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(20)
		}
		mkAxes := func() []dad.AxisDist {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomRegularAxis(rng, dims[a])
			}
			return axes
		}
		src, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatal(err)
		}
		dst, err := dad.NewTemplate(dims, mkAxes())
		if err != nil {
			t.Fatal(err)
		}
		s := mustBuild(t, src, dst)
		for _, p := range s.Pairs {
			for _, r := range p.Runs {
				if r.N == 1 {
					unit++
				} else {
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
	if unit < 1000 || long < 1000 {
		t.Fatalf("corpus has %d unit runs and %d longer ones — generator drifted", unit, long)
	}
}

// The two kernels on the two run shapes the benchmark's workloads have:
// prmi_tcp and small_tcp move runs of one element, bulk_tcp runs of 512.
func BenchmarkPackSlice(b *testing.B) {
	const elems = 1 << 14
	local, out := make([]float64, 2*elems), make([]float64, elems)
	shapes := []struct {
		name string
		n    int
	}{{"unit-runs", 1}, {"512-runs", 512}}
	for _, sh := range shapes {
		plan := PairPlan{Elems: elems}
		for off := 0; off < elems; off += sh.n {
			plan.Runs = append(plan.Runs, Run{SrcOff: 2 * off, DstOff: off, N: sh.n})
		}
		b.Run(sh.name+"/fast", func(b *testing.B) {
			b.SetBytes(8 * elems)
			for i := 0; i < b.N; i++ {
				PackSlice(plan, local, out)
			}
		})
		b.Run(sh.name+"/copy", func(b *testing.B) {
			b.SetBytes(8 * elems)
			for i := 0; i < b.N; i++ {
				packByCopy(plan, local, out)
			}
		})
	}
}

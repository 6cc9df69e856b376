// Composed-schedule execution exercised end to end through the parallel
// executor. This lives in an external test package: it drives
// schedule.Compose output through a redist.Transfer over a comm world, and
// redist imports schedule.
package schedule_test

import (
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

func mkTpl(t *testing.T, dims []int, axes ...dad.AxisDist) *dad.Template {
	t.Helper()
	out, err := dad.NewTemplate(dims, axes)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func fp(idx []int) float64 {
	v := 1.0
	for _, i := range idx {
		v = v*131 + float64(i)
	}
	return v
}

func eachIndex(dims []int, fn func(idx []int)) {
	idx := make([]int, len(dims))
	for {
		fn(idx)
		a := len(dims) - 1
		for a >= 0 {
			idx[a]++
			if idx[a] < dims[a] {
				break
			}
			idx[a] = 0
			a--
		}
		if a < 0 {
			return
		}
	}
}

// A three-stage pipeline A -> B -> C collapsed by Compose into a single
// A -> C schedule must move data identically to the two-stage route when
// executed by a parallel redist.Transfer.
func TestComposeExecutesThroughExchange(t *testing.T) {
	dims := []int{12, 6}
	a := mkTpl(t, dims, dad.BlockAxis(2), dad.BlockAxis(2))
	b := mkTpl(t, dims, dad.CyclicAxis(3), dad.CollapsedAxis())
	c := mkTpl(t, dims, dad.CollapsedAxis(), dad.BlockAxis(2))

	s1, err := schedule.Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := schedule.Build(b, c)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := schedule.Compose(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Src.Key() != a.Key() || sc.Dst.Key() != c.Key() {
		t.Fatalf("composed schedule spans %s -> %s", sc.Src.Key(), sc.Dst.Key())
	}

	// Fill A-side fragments with position fingerprints.
	srcLocals := make([][]float64, a.NumProcs())
	for r := range srcLocals {
		srcLocals[r] = make([]float64, a.LocalCount(r))
	}
	eachIndex(dims, func(idx []int) {
		r := a.OwnerOf(idx)
		srcLocals[r][a.LocalOffset(r, idx)] = fp(idx)
	})

	// Reference: the two-stage route through B, executed locally.
	mid := make([][]float64, b.NumProcs())
	for r := range mid {
		mid[r] = make([]float64, b.LocalCount(r))
	}
	want := make([][]float64, c.NumProcs())
	for r := range want {
		want[r] = make([]float64, c.LocalCount(r))
	}
	redist.ExecuteLocalT(s1, srcLocals, mid)
	redist.ExecuteLocalT(s2, mid, want)

	// The composed schedule, executed in parallel: A cohort then C cohort.
	nA, nC := a.NumProcs(), c.NumProcs()
	got := make([][]float64, nC)
	var mu sync.Mutex
	comm.Run(nA+nC, func(cm *comm.Comm) {
		lay := redist.Layout{SrcBase: 0, DstBase: nA}
		var sl, dl []float64
		if cm.Rank() < nA {
			sl = srcLocals[cm.Rank()]
		} else {
			dl = make([]float64, c.LocalCount(cm.Rank()-nA))
		}
		xt, err := redist.New[float64](cm, sc, lay, 0, redist.TransferOpts{})
		if err == nil {
			_, err = xt.Run(sl, dl)
		}
		if err != nil {
			t.Errorf("rank %d: %v", cm.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			got[cm.Rank()-nA] = dl
			mu.Unlock()
		}
	})

	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("C rank %d elem %d: composed %v, two-stage %v", r, i, got[r][i], want[r][i])
			}
		}
	}
	// And both agree with the direct fingerprint of each global index.
	eachIndex(dims, func(idx []int) {
		r := c.OwnerOf(idx)
		if got[r][c.LocalOffset(r, idx)] != fp(idx) {
			t.Errorf("index %v on C rank %d: got %v, want %v", idx, r, got[r][c.LocalOffset(r, idx)], fp(idx))
		}
	})
}

package redist

import (
	"math/rand"
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/schedule"
)

func fingerprint(idx []int) float64 {
	v := 1.0
	for _, i := range idx {
		v = v*131 + float64(i)
	}
	return v
}

func forEachIndex(dims []int, fn func(idx []int)) {
	for _, d := range dims {
		if d == 0 {
			return
		}
	}
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

func fillByGlobal(t *dad.Template) [][]float64 {
	locals := make([][]float64, t.NumProcs())
	for r := range locals {
		locals[r] = make([]float64, t.LocalCount(r))
	}
	forEachIndex(t.Dims(), func(idx []int) {
		r := t.OwnerOf(idx)
		locals[r][t.LocalOffset(r, idx)] = fingerprint(idx)
	})
	return locals
}

func verify(t *testing.T, dst *dad.Template, dstLocals [][]float64) {
	t.Helper()
	forEachIndex(dst.Dims(), func(idx []int) {
		r := dst.OwnerOf(idx)
		got := dstLocals[r][dst.LocalOffset(r, idx)]
		if got != fingerprint(idx) {
			t.Errorf("index %v on dst rank %d: got %v, want %v", idx, r, got, fingerprint(idx))
		}
	})
}

func tpl(t testing.TB, dims []int, axes ...dad.AxisDist) *dad.Template {
	t.Helper()
	out, err := dad.NewTemplate(dims, axes)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// xfer builds this rank's schedule-driven handle and runs it once: the
// one-shot form for tests where reusing the handle is not the point.
func xfer[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, src, dst []T, tag int, opts TransferOpts) (*Outcome, error) {
	xt, err := New[T](c, s, lay, tag, opts)
	if err != nil {
		return nil, err
	}
	return xt.Run(src, dst)
}

// xferLinear is xfer for a linear plan.
func xferLinear[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst int,
	src, dst []T, tag int, opts TransferOpts) (*Outcome, error) {
	xt, err := NewLinear(c, srcLin, dstLin, lay, nSrc, nDst, tag, opts)
	if err != nil {
		return nil, err
	}
	return xt.Run(src, dst)
}

func TestExecuteLocal(t *testing.T) {
	src := tpl(t, []int{10, 10}, dad.BlockAxis(2), dad.BlockAxis(2))
	dst := tpl(t, []int{10, 10}, dad.CyclicAxis(3), dad.CollapsedAxis())
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, dst.NumProcs())
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	ExecuteLocalT(s, srcLocals, dstLocals)
	verify(t, dst, dstLocals)
}

// runExchange stands up a world of M+N ranks (sources first) and performs
// one transfer, returning the destination buffers.
func runExchange(t *testing.T, src, dst *dad.Template) [][]float64 {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	var mu sync.Mutex
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		}
		if c.Rank() >= m {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		if _, err := xfer(c, s, lay, sl, dl, 0, TransferOpts{}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	})
	return dstLocals
}

func TestExchangeBasic(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(4))
	verify(t, dst, runExchange(t, src, dst))
}

func TestExchangeFigure1(t *testing.T) {
	src := tpl(t, []int{6, 6, 6}, dad.BlockAxis(2), dad.BlockAxis(2), dad.BlockAxis(2))
	dst := tpl(t, []int{6, 6, 6}, dad.BlockAxis(3), dad.BlockAxis(3), dad.BlockAxis(3))
	verify(t, dst, runExchange(t, src, dst))
}

func TestExchangeMixedKinds(t *testing.T) {
	src := tpl(t, []int{8, 9}, dad.CyclicAxis(2), dad.GenBlockAxis([]int{2, 7}))
	dst := tpl(t, []int{8, 9}, dad.BlockCyclicAxis(2, 3), dad.BlockAxis(2))
	verify(t, dst, runExchange(t, src, dst))
}

func TestExchangeSelfTranspose(t *testing.T) {
	// Same cohort both sides: row-block to column-block on 4 ranks.
	src := tpl(t, []int{8, 8}, dad.BlockAxis(4), dad.CollapsedAxis())
	dst := tpl(t, []int{8, 8}, dad.CollapsedAxis(), dad.BlockAxis(4))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, 4)
	var mu sync.Mutex
	comm.Run(4, func(c *comm.Comm) {
		dl := make([]float64, dst.LocalCount(c.Rank()))
		if _, err := xfer(c, s, Layout{0, 0}, srcLocals[c.Rank()], dl, 0, TransferOpts{}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		mu.Lock()
		dstLocals[c.Rank()] = dl
		mu.Unlock()
	})
	verify(t, dst, dstLocals)
}

func TestExchangeBufferValidation(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	// Run checks the buffers before anything moves, so a rejected Run
	// leaves the handle ready for the corrected one.
	comm.Run(4, func(c *comm.Comm) {
		xt, err := New[float64](c, s, Layout{SrcBase: 0, DstBase: 2}, 0, TransferOpts{})
		if err != nil {
			t.Error(err)
			return
		}
		switch c.Rank() {
		case 0:
			// Wrong source buffer length.
			if _, err := xt.Run(make([]float64, 3), nil); err == nil {
				t.Error("short source buffer accepted")
			}
			// Send the real data so destinations can finish.
			if _, err := xt.Run(make([]float64, 4), nil); err != nil {
				t.Error(err)
			}
		case 1:
			// Nil source buffer on a source rank.
			if _, err := xt.Run(nil, nil); err == nil {
				t.Error("nil source buffer accepted")
			}
			if _, err := xt.Run(make([]float64, 4), nil); err != nil {
				t.Error(err)
			}
		default:
			if _, err := xt.Run(nil, make([]float64, 4)); err != nil {
				t.Error(err)
			}
		}
	})
}

func TestConcurrentTransfersDistinctTags(t *testing.T) {
	// Two arrays aligned to the same templates move concurrently on
	// distinct tags; both must arrive intact.
	src := tpl(t, []int{16}, dad.BlockAxis(2))
	dst := tpl(t, []int{16}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	a := fillByGlobal(src)
	b := make([][]float64, 2)
	for r := range b {
		b[r] = make([]float64, len(a[r]))
		for i := range b[r] {
			b[r][i] = -a[r][i]
		}
	}
	gotA := make([][]float64, 2)
	gotB := make([][]float64, 2)
	var mu sync.Mutex
	comm.Run(4, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 2}
		var wg sync.WaitGroup
		if c.Rank() < 2 {
			wg.Add(2)
			go func() { defer wg.Done(); xfer(c, s, lay, a[c.Rank()], nil, 0, TransferOpts{}) }()
			go func() { defer wg.Done(); xfer(c, s, lay, b[c.Rank()], nil, 1, TransferOpts{}) }()
			wg.Wait()
		} else {
			da := make([]float64, dst.LocalCount(c.Rank()-2))
			db := make([]float64, dst.LocalCount(c.Rank()-2))
			wg.Add(2)
			go func() { defer wg.Done(); xfer(c, s, lay, nil, da, 0, TransferOpts{}) }()
			go func() { defer wg.Done(); xfer(c, s, lay, nil, db, 1, TransferOpts{}) }()
			wg.Wait()
			mu.Lock()
			gotA[c.Rank()-2] = da
			gotB[c.Rank()-2] = db
			mu.Unlock()
		}
	})
	verify(t, dst, gotA)
	forEachIndex(dst.Dims(), func(idx []int) {
		r := dst.OwnerOf(idx)
		if got := gotB[r][dst.LocalOffset(r, idx)]; got != -fingerprint(idx) {
			t.Errorf("array B at %v: got %v", idx, got)
		}
	})
}

func TestLinearExchangeRowMajor(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	srcLin := linear.NewRowMajor(src)
	dstLin := linear.NewRowMajor(dst)
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, 2)
	var mu sync.Mutex
	comm.Run(5, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 3}
		var sl, dl []float64
		if c.Rank() < 3 {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-3))
		}
		if _, err := xferLinear(c, srcLin, dstLin, lay, 3, 2, sl, dl, 0, TransferOpts{}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-3] = dl
			mu.Unlock()
		}
	})
	verify(t, dst, dstLocals)
}

func TestLinearExchange2D(t *testing.T) {
	src := tpl(t, []int{6, 8}, dad.BlockAxis(2), dad.BlockAxis(2))
	dst := tpl(t, []int{6, 8}, dad.CollapsedAxis(), dad.BlockAxis(3))
	srcLin := linear.NewRowMajor(src)
	dstLin := linear.NewRowMajor(dst)
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, 3)
	var mu sync.Mutex
	comm.Run(7, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 4}
		var sl, dl []float64
		if c.Rank() < 4 {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-4))
		}
		if _, err := xferLinear(c, srcLin, dstLin, lay, 4, 3, sl, dl, 0, TransferOpts{}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-4] = dl
			mu.Unlock()
		}
	})
	verify(t, dst, dstLocals)
}

func TestLinearExchangeLengthMismatch(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{9}, dad.BlockAxis(2))
	comm.Run(4, func(c *comm.Comm) {
		_, err := NewLinear(c, linear.NewRowMajor(src), linear.NewRowMajor(dst), Layout{0, 2}, 2, 2, 0, TransferOpts{})
		if err == nil {
			t.Error("mismatched linearizations accepted")
		}
	})
}

// Property: a transfer agrees with ExecuteLocalT on random template pairs.
func TestPropertyExchangeMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		dims := []int{1 + rng.Intn(7), 1 + rng.Intn(7)}
		mk := func() *dad.Template {
			axes := []dad.AxisDist{
				dad.BlockAxis(1 + rng.Intn(3)),
				dad.CyclicAxis(1 + rng.Intn(3)),
			}
			if rng.Intn(2) == 0 {
				axes[0], axes[1] = axes[1], axes[0]
			}
			out, err := dad.NewTemplate(dims, axes)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		src, dst := mk(), mk()
		s, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		srcLocals := fillByGlobal(src)
		want := make([][]float64, dst.NumProcs())
		for r := range want {
			want[r] = make([]float64, dst.LocalCount(r))
		}
		ExecuteLocalT(s, srcLocals, want)
		got := runExchange(t, src, dst)
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("trial %d: rank %d elem %d: parallel %v local %v", trial, r, i, got[r][i], want[r][i])
				}
			}
		}
	}
}

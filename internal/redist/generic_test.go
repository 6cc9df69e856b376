package redist

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// Generic analogues of the float64 test helpers: fill every global index
// with a converted fingerprint and verify the destination holds exactly
// the converted fingerprints — element conservation and coverage in one
// pass, for any engine element type.

func fillByGlobalT[T Elem](t *dad.Template, conv func(float64) T) [][]T {
	locals := make([][]T, t.NumProcs())
	for r := range locals {
		locals[r] = make([]T, t.LocalCount(r))
	}
	forEachIndex(t.Dims(), func(idx []int) {
		r := t.OwnerOf(idx)
		locals[r][t.LocalOffset(r, idx)] = conv(fingerprint(idx))
	})
	return locals
}

func verifyT[T Elem](t *testing.T, dst *dad.Template, dstLocals [][]T, conv func(float64) T) {
	t.Helper()
	forEachIndex(dst.Dims(), func(idx []int) {
		r := dst.OwnerOf(idx)
		got := dstLocals[r][dst.LocalOffset(r, idx)]
		if got != conv(fingerprint(idx)) {
			t.Errorf("index %v on dst rank %d: got %v, want %v", idx, r, got, conv(fingerprint(idx)))
		}
	})
}

// runExchangeT is runExchange for an arbitrary element type.
func runExchangeT[T Elem](t *testing.T, src, dst *dad.Template, conv func(float64) T) [][]T {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]T, n)
	var mu sync.Mutex
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []T
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		}
		if c.Rank() >= m {
			dl = make([]T, dst.LocalCount(c.Rank()-m))
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

func TestExchangeFloat32(t *testing.T) {
	src := tpl(t, []int{8, 9}, dad.CyclicAxis(2), dad.GenBlockAxis([]int{2, 7}))
	dst := tpl(t, []int{8, 9}, dad.BlockCyclicAxis(2, 3), dad.BlockAxis(2))
	conv := func(v float64) float32 { return float32(v) }
	verifyT(t, dst, runExchangeT(t, src, dst, conv), conv)
}

func TestExchangeComplex128(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	conv := func(v float64) complex128 { return complex(v, -v) }
	verifyT(t, dst, runExchangeT(t, src, dst, conv), conv)
}

func TestExchangeInt32(t *testing.T) {
	src := tpl(t, []int{16}, dad.BlockAxis(2))
	dst := tpl(t, []int{16}, dad.CyclicAxis(4))
	conv := func(v float64) int32 { return int32(v) }
	verifyT(t, dst, runExchangeT(t, src, dst, conv), conv)
}

func TestExecuteLocalGeneric(t *testing.T) {
	src := tpl(t, []int{10, 10}, dad.BlockAxis(2), dad.BlockAxis(2))
	dst := tpl(t, []int{10, 10}, dad.CyclicAxis(3), dad.CollapsedAxis())
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	conv := func(v float64) int64 { return int64(v) }
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]int64, dst.NumProcs())
	for r := range dstLocals {
		dstLocals[r] = make([]int64, dst.LocalCount(r))
	}
	ExecuteLocalT(s, srcLocals, dstLocals)
	verifyT(t, dst, dstLocals, conv)
}

func TestLinearExchangeFloat32(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	srcLin := schedule.NewRowMajor(src)
	dstLin := schedule.NewRowMajor(dst)
	conv := func(v float64) float32 { return float32(v) }
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]float32, 2)
	var mu sync.Mutex
	comm.Run(5, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 3}
		var sl, dl []float32
		if c.Rank() < 3 {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float32, dst.LocalCount(c.Rank()-3))
		}
		if _, err := xferLinear(c, srcLin, dstLin, lay, sl, dl, 0, TransferOpts{}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-3] = dl
			mu.Unlock()
		}
	})
	verifyT(t, dst, dstLocals, conv)
}

// Property: the float32 engine instantiation agrees with the float32 local
// executor on random template pairs — the same conservation/coverage
// property the float64 path is held to.
func TestPropertyExchangeMatchesLocalFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	conv := func(v float64) float32 { return float32(v) }
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
		srcLocals := fillByGlobalT(src, conv)
		want := make([][]float32, dst.NumProcs())
		for r := range want {
			want[r] = make([]float32, dst.LocalCount(r))
		}
		ExecuteLocalT(s, srcLocals, want)
		got := runExchangeT(t, src, dst, conv)
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("trial %d: rank %d elem %d: parallel %v local %v", trial, r, i, got[r][i], want[r][i])
				}
			}
		}
		verifyT(t, dst, got, conv)
	}
}

// A kind mismatch between the cohorts (source sends float32, destination
// expects float64) must surface as a typed *ElemKindError on the
// destination, not as garbage data.
func TestExchangeKindMismatch(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	src32 := fillByGlobalT(src, func(v float64) float32 { return float32(v) })
	comm.Run(4, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 2}
		if c.Rank() < 2 {
			if _, err := xfer(c, s, lay, src32[c.Rank()], nil, 0, TransferOpts{}); err != nil {
				t.Errorf("source rank %d: %v", c.Rank(), err)
			}
			return
		}
		dl := make([]float64, dst.LocalCount(c.Rank()-2))
		_, err := xfer(c, s, lay, nil, dl, 0, TransferOpts{})
		var eke *ElemKindError
		if !errors.As(err, &eke) {
			t.Errorf("dst rank %d: got %v, want *ElemKindError", c.Rank()-2, err)
			return
		}
		if eke.Got != dad.Float32 || eke.Want != dad.Float64 {
			t.Errorf("dst rank %d: blamed %v->%v, want float32->float64", c.Rank()-2, eke.Got, eke.Want)
		}
	})
}

package redist

import (
	"math/rand"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/bufpool/pooltest"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// packAllThenUnpackAll is the reference staging of a local execution: the
// whole transfer packed, in pair order, before any of it is unpacked.
func packAllThenUnpackAll(s *schedule.Schedule, srcLocals, dstLocals [][]float64) {
	staged := make([]float64, 0, s.TotalElems())
	for _, p := range s.Pairs {
		seg := make([]float64, p.Elems)
		schedule.PackSlice(p, srcLocals[p.SrcRank], seg)
		staged = append(staged, seg...)
	}
	for _, p := range s.Pairs {
		schedule.UnpackSlice(p, dstLocals[p.DstRank], staged[:p.Elems])
		staged = staged[p.Elems:]
	}
}

// randomLayoutAxis draws a regular distribution of an n-element axis.
func randomLayoutAxis(rng *rand.Rand, n int) dad.AxisDist {
	p := 1 + rng.Intn(4)
	switch rng.Intn(5) {
	case 0:
		return dad.CollapsedAxis()
	case 1:
		return dad.BlockAxis(p)
	case 2:
		return dad.CyclicAxis(p)
	case 3:
		return dad.BlockCyclicAxis(p, 1+rng.Intn(4))
	default:
		sizes := make([]int, p)
		left := n
		for i := range sizes[:p-1] {
			sizes[i] = rng.Intn(left + 1)
			left -= sizes[i]
		}
		sizes[p-1] = left
		return dad.GenBlockAxis(sizes)
	}
}

func zerosLike(d *dad.Template) [][]float64 {
	out := make([][]float64, d.NumProcs())
	for r := range out {
		out[r] = make([]float64, d.LocalCount(r))
	}
	return out
}

// Differential guarantee of the staging window: on random template pairs,
// executing through windows of any size — one element, a few elements
// that straddle pair boundaries, one short of the whole transfer, the
// whole transfer and beyond, and ExecuteLocalT's own — fills destination
// buffers bit-identical to packing everything before unpacking anything.
func TestWindowedExecuteLocalMatchesPackAll(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	straddled := 0
	for trial := 0; trial < 200; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(20)
		}
		mk := func() *dad.Template {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomLayoutAxis(rng, dims[a])
			}
			return tpl(t, dims, axes...)
		}
		src, dst := mk(), mk()
		s, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		srcLocals := fillByGlobal(src)
		want := zerosLike(dst)
		packAllThenUnpackAll(s, srcLocals, want)
		verify(t, dst, want)
		total := s.TotalElems()
		for _, w := range []int{1, 2, 3, 7, total - 1, total, total + 5} {
			if w < 1 {
				continue
			}
			if w < total && straddles(s, w) {
				straddled++
			}
			got := zerosLike(dst)
			executeLocal(s, srcLocals, got, w)
			for r := range want {
				if !bitsEqual(got[r], want[r]) {
					t.Fatalf("trial %d (%s → %s) window %d: dst rank %d\ngot  %v\nwant %v",
						trial, src.Key(), dst.Key(), w, r, got[r], want[r])
				}
			}
		}
		got := zerosLike(dst)
		ExecuteLocalT(s, srcLocals, got)
		for r := range want {
			if !bitsEqual(got[r], want[r]) {
				t.Fatalf("trial %d: ExecuteLocalT differs on dst rank %d", trial, r)
			}
		}
		s.Recycle()
	}
	t.Logf("%d windows straddled a pair boundary", straddled)
	if straddled < 100 {
		t.Fatalf("only %d windows straddled a pair boundary — the corpus drifted", straddled)
	}
}

// straddles reports whether some window of w elements covers the end of
// one pair and the start of the next.
func straddles(s *schedule.Schedule, w int) bool {
	end := 0
	for _, p := range s.Pairs[:len(s.Pairs)-1] {
		if end += p.Elems; end%w != 0 {
			return true
		}
	}
	return false
}

// ExecuteLocalT stages an 8 MiB transfer through its window: no pooled
// buffer larger than the window's 64 KiB class is drawn. Every free buffer
// of the larger classes is held aside first, so anything the execution
// drew and returned would show up on their free lists afterwards.
func TestExecuteLocalStagesThroughWindow(t *testing.T) {
	if err := pooltest.Balanced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	src := tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	larger := func() (bufs [][]byte) {
		for k := 17; k <= 24; k++ {
			for b := bufpool.TryGetFrame(1 << k); b != nil; b = bufpool.TryGetFrame(1 << k) {
				bufs = append(bufs, b)
			}
		}
		return bufs
	}
	held := larger()
	defer func() {
		for _, b := range held {
			bufpool.PutFrame(b)
		}
	}()
	got := zerosLike(dst)
	ExecuteLocalT(s, fillByGlobal(src), got)
	verify(t, dst, got)
	drawn := larger()
	held = append(held, drawn...)
	for _, b := range drawn {
		t.Errorf("an 8 MiB ExecuteLocalT drew a %d-byte pooled buffer; the window's is %d", cap(b), localWindow+256)
	}
}

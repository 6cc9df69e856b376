package redist

import (
	"math/rand"
	"testing"
	"time"

	"mxn/internal/bufpool/pooltest"
	"mxn/internal/dad"
	"mxn/internal/obs"
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

// Differential guarantee of the direct copy: on random template pairs,
// ExecuteLocalT — which, with no source buffer overlapping a destination
// buffer, copies pair by pair straight from source to destination — fills
// destination buffers bit-identical to packing everything before
// unpacking anything, and stages nothing: every element it moves is
// counted as read in place.
func TestDirectExecuteLocalMatchesPackAll(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
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
		got := zerosLike(dst)
		lent, packed := mElemsLent.Value(), mElemsPacked.Value()
		ExecuteLocalT(s, srcLocals, got)
		if dl, dp := mElemsLent.Value()-lent, mElemsPacked.Value()-packed; dl != uint64(s.TotalElems()) || dp != 0 {
			t.Fatalf("trial %d (%s → %s): %d elements copied directly and %d staged, want %d and 0",
				trial, src.Key(), dst.Key(), dl, dp, s.TotalElems())
		}
		for r := range want {
			if !bitsEqual(got[r], want[r]) {
				t.Fatalf("trial %d (%s → %s): dst rank %d\ngot  %v\nwant %v",
					trial, src.Key(), dst.Key(), r, got[r], want[r])
			}
		}
	}
}

// A non-overlapping ExecuteLocalT of an 8 MiB transfer draws no pooled
// buffer at all: it copies each pair straight into its destination.
func TestExecuteLocalDrawsNoPoolBuffer(t *testing.T) {
	if err := pooltest.Balanced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	src := tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals, got := fillByGlobal(src), zerosLike(dst)
	draws := func() uint64 {
		c := obs.Default().Snapshot().Counters
		return c["bufpool.gets"] + c["bufpool.frame_gets"]
	}
	before := draws()
	ExecuteLocalT(s, srcLocals, got)
	if d := draws() - before; d != 0 {
		t.Errorf("an 8 MiB ExecuteLocalT drew %d pooled buffers, want none", d)
	}
	verify(t, dst, got)
}

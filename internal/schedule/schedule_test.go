package schedule

import (
	"math/rand"
	"testing"

	"mxn/internal/dad"
)

// fillByGlobal assigns every element of each source rank's local buffer the
// value of a global fingerprint function, returning the buffers.
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

// executeLocally runs the whole schedule in one goroutine: pack every
// pair's data from src buffers, unpack into dst buffers.
func executeLocally(s *Schedule, srcLocals [][]float64) [][]float64 {
	dstLocals := make([][]float64, s.Dst.NumProcs())
	for r := range dstLocals {
		dstLocals[r] = make([]float64, s.Dst.LocalCount(r))
	}
	for _, p := range s.Pairs {
		buf := make([]float64, p.Elems)
		PackSlice(p, srcLocals[p.SrcRank], buf)
		UnpackSlice(p, dstLocals[p.DstRank], buf)
	}
	return dstLocals
}

// verifyRedistribution checks that dst buffers hold the fingerprint of
// every global index.
func verifyRedistribution(t *testing.T, dst *dad.Template, dstLocals [][]float64) {
	t.Helper()
	forEachIndex(dst.Dims(), func(idx []int) {
		r := dst.OwnerOf(idx)
		got := dstLocals[r][dst.LocalOffset(r, idx)]
		if got != fingerprint(idx) {
			t.Fatalf("index %v on dst rank %d: got %v, want %v", idx, r, got, fingerprint(idx))
		}
	})
}

func mustBuild(t testing.TB, src, dst *dad.Template) *Schedule {
	t.Helper()
	s, err := Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tpl(t testing.TB, dims []int, axes ...dad.AxisDist) *dad.Template {
	t.Helper()
	out, err := dad.NewTemplate(dims, axes)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBlockToBlock1D(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(4))
	s := mustBuild(t, src, dst)
	if s.TotalElems() != 12 {
		t.Errorf("total = %d", s.TotalElems())
	}
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
}

func TestBlockToCyclic1D(t *testing.T) {
	src := tpl(t, []int{10}, dad.BlockAxis(2))
	dst := tpl(t, []int{10}, dad.CyclicAxis(3))
	s := mustBuild(t, src, dst)
	if s.TotalElems() != 10 {
		t.Errorf("total = %d", s.TotalElems())
	}
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
}

func TestFigure1Redistribution(t *testing.T) {
	// The paper's Figure 1: M=8 (2×2×2) to N=27 (3×3×3) over a 3-D domain.
	src := tpl(t, []int{6, 6, 6}, dad.BlockAxis(2), dad.BlockAxis(2), dad.BlockAxis(2))
	dst := tpl(t, []int{6, 6, 6}, dad.BlockAxis(3), dad.BlockAxis(3), dad.BlockAxis(3))
	s := mustBuild(t, src, dst)
	if s.TotalElems() != 216 {
		t.Errorf("total = %d, want 216", s.TotalElems())
	}
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
	// Multiple destination ranks must receive from each source rank
	// (N > M), so messages exceed max(M, N).
	if s.NumMessages() <= 27 {
		t.Errorf("messages = %d, expected more than 27 for the 8→27 overlap", s.NumMessages())
	}
}

func TestIdentityRedistribution(t *testing.T) {
	// Same template both sides: every rank talks only to itself.
	src := tpl(t, []int{8, 8}, dad.BlockAxis(2), dad.BlockAxis(2))
	s := mustBuild(t, src, src)
	if s.NumMessages() != 4 {
		t.Errorf("messages = %d, want 4 self-messages", s.NumMessages())
	}
	for _, p := range s.Pairs {
		if p.SrcRank != p.DstRank {
			t.Errorf("identity redistribution has cross message %d→%d", p.SrcRank, p.DstRank)
		}
	}
	verifyRedistribution(t, src, executeLocally(s, fillByGlobal(src)))
}

func TestTransposeSelfConnection(t *testing.T) {
	// The paper mentions self connections "such as for transpose
	// operations": row-block to column-block over the same 4 ranks.
	src := tpl(t, []int{8, 8}, dad.BlockAxis(4), dad.CollapsedAxis())
	dst := tpl(t, []int{8, 8}, dad.CollapsedAxis(), dad.BlockAxis(4))
	s := mustBuild(t, src, dst)
	if s.NumMessages() != 16 {
		t.Errorf("messages = %d, want full 4×4 exchange", s.NumMessages())
	}
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
}

func TestExplicitToRegular(t *testing.T) {
	patches := []dad.Patch{
		dad.NewPatch([]int{0, 0}, []int{3, 4}, 0),
		dad.NewPatch([]int{3, 0}, []int{6, 2}, 1),
		dad.NewPatch([]int{3, 2}, []int{6, 4}, 2),
	}
	src, err := dad.NewExplicitTemplate([]int{6, 4}, 3, patches)
	if err != nil {
		t.Fatal(err)
	}
	dst := tpl(t, []int{6, 4}, dad.BlockAxis(2), dad.BlockAxis(2))
	s := mustBuild(t, src, dst)
	if s.TotalElems() != 24 {
		t.Errorf("total = %d", s.TotalElems())
	}
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
}

func TestRegularToExplicit(t *testing.T) {
	src := tpl(t, []int{6, 4}, dad.CyclicAxis(2), dad.BlockAxis(2))
	patches := []dad.Patch{
		dad.NewPatch([]int{0, 0}, []int{6, 3}, 1),
		dad.NewPatch([]int{0, 3}, []int{6, 4}, 0),
	}
	dst, err := dad.NewExplicitTemplate([]int{6, 4}, 2, patches)
	if err != nil {
		t.Fatal(err)
	}
	s := mustBuild(t, src, dst)
	verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
}

func TestNonConformingTemplates(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{9}, dad.BlockAxis(2))
	if _, err := Build(src, dst); err == nil {
		t.Error("non-conforming templates accepted")
	}
	dst2 := tpl(t, []int{8, 1}, dad.BlockAxis(2), dad.CollapsedAxis())
	if _, err := Build(src, dst2); err == nil {
		t.Error("different-arity templates accepted")
	}
}

func TestPerRankViews(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(2))
	dst := tpl(t, []int{12}, dad.BlockAxis(3))
	s := mustBuild(t, src, dst)
	// Every pair appears in exactly one outgoing and one incoming view.
	seen := 0
	for r := 0; r < 2; r++ {
		for _, p := range s.OutgoingFor(r) {
			if p.SrcRank != r {
				t.Errorf("outgoing view of %d contains src %d", r, p.SrcRank)
			}
			seen++
		}
	}
	if seen != s.NumMessages() {
		t.Errorf("outgoing views cover %d of %d", seen, s.NumMessages())
	}
	seen = 0
	for r := 0; r < 3; r++ {
		for _, p := range s.IncomingFor(r) {
			if p.DstRank != r {
				t.Errorf("incoming view of %d contains dst %d", r, p.DstRank)
			}
			seen++
		}
	}
	if seen != s.NumMessages() {
		t.Errorf("incoming views cover %d of %d", seen, s.NumMessages())
	}
}

func randomAxis(rng *rand.Rand, n int) dad.AxisDist {
	p := 1 + rng.Intn(4)
	switch rng.Intn(6) {
	case 0:
		return dad.CollapsedAxis()
	case 1:
		return dad.BlockAxis(p)
	case 2:
		return dad.CyclicAxis(p)
	case 3:
		return dad.BlockCyclicAxis(p, 1+rng.Intn(3))
	case 4:
		sizes := make([]int, p)
		left := n
		for i := 0; i < p-1; i++ {
			s := 0
			if left > 0 {
				s = rng.Intn(left + 1)
			}
			sizes[i] = s
			left -= s
		}
		sizes[p-1] = left
		return dad.GenBlockAxis(sizes)
	default:
		owner := make([]int, n)
		for i := range owner {
			owner[i] = rng.Intn(p)
		}
		return dad.ImplicitAxis(p, owner)
	}
}

// Property: for random template pairs over the same index space, the
// schedule moves every element exactly once and values survive intact.
func TestPropertyRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(8)
		}
		mkAxes := func() []dad.AxisDist {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomAxis(rng, dims[a])
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
		if s.TotalElems() != src.Size() {
			t.Fatalf("trial %d (%s → %s): schedule moves %d of %d elements",
				trial, src.Key(), dst.Key(), s.TotalElems(), src.Size())
		}
		verifyRedistribution(t, dst, executeLocally(s, fillByGlobal(src)))
		if t.Failed() {
			t.Fatalf("trial %d failed: %s → %s", trial, src.Key(), dst.Key())
		}
	}
}

func TestScheduleCache(t *testing.T) {
	cache := NewCache()
	src := tpl(t, []int{16}, dad.BlockAxis(2))
	dst := tpl(t, []int{16}, dad.CyclicAxis(4))
	s1, err := cache.Get(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cache.Get(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("cache returned a different schedule for the same pair")
	}
	// An equal-but-distinct template object also hits.
	src2 := tpl(t, []int{16}, dad.BlockAxis(2))
	s3, err := cache.Get(src2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s1 {
		t.Error("structurally equal template missed the cache")
	}
	hits, misses := cache.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits %d misses", hits, misses)
	}
	// Reverse direction is a different schedule.
	rev, err := cache.Get(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if rev == s1 {
		t.Error("reverse direction hit the forward schedule")
	}
}

func TestPackUnpackAdjointProperty(t *testing.T) {
	// Pack followed by Unpack restores exactly the transferred elements.
	src := tpl(t, []int{9}, dad.BlockCyclicAxis(3, 2))
	dst := tpl(t, []int{9}, dad.BlockAxis(3))
	s := mustBuild(t, src, dst)
	srcLocals := fillByGlobal(src)
	for _, p := range s.Pairs {
		buf := make([]float64, p.Elems)
		PackSlice(p, srcLocals[p.SrcRank], buf)
		for i, v := range buf {
			if v == 0 {
				t.Errorf("pair %d→%d packed a zero at %d (fingerprints are nonzero)", p.SrcRank, p.DstRank, i)
			}
		}
	}
}

func TestIndexedViewsMatchSlices(t *testing.T) {
	// OutDegree/OutgoingAt and InDegree/IncomingAt are the allocation-free
	// views; they must agree with OutgoingFor/IncomingFor exactly.
	src := tpl(t, []int{12, 6}, dad.BlockAxis(3), dad.CyclicAxis(2))
	dst := tpl(t, []int{12, 6}, dad.CyclicAxis(2), dad.BlockAxis(3))
	s := mustBuild(t, src, dst)
	for r := 0; r < src.NumProcs(); r++ {
		want := s.OutgoingFor(r)
		if s.OutDegree(r) != len(want) {
			t.Fatalf("src rank %d: OutDegree %d, OutgoingFor %d", r, s.OutDegree(r), len(want))
		}
		for i := range want {
			got := s.OutgoingAt(r, i)
			if got.SrcRank != want[i].SrcRank || got.DstRank != want[i].DstRank || got.Elems != want[i].Elems {
				t.Fatalf("src rank %d plan %d: %+v vs %+v", r, i, got, want[i])
			}
		}
	}
	for r := 0; r < dst.NumProcs(); r++ {
		want := s.IncomingFor(r)
		if s.InDegree(r) != len(want) {
			t.Fatalf("dst rank %d: InDegree %d, IncomingFor %d", r, s.InDegree(r), len(want))
		}
		for i := range want {
			got := s.IncomingAt(r, i)
			if got.SrcRank != want[i].SrcRank || got.DstRank != want[i].DstRank || got.Elems != want[i].Elems {
				t.Fatalf("dst rank %d plan %d: %+v vs %+v", r, i, got, want[i])
			}
		}
	}
	// The indexed accessors must not allocate: the zero-alloc transfer
	// loop iterates plans through them on every exchange.
	allocs := testing.AllocsPerRun(100, func() {
		for r := 0; r < src.NumProcs(); r++ {
			for i := 0; i < s.OutDegree(r); i++ {
				_ = s.OutgoingAt(r, i)
			}
		}
		for r := 0; r < dst.NumProcs(); r++ {
			for i := 0; i < s.InDegree(r); i++ {
				_ = s.IncomingAt(r, i)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("indexed schedule views allocate: %v allocs/op", allocs)
	}
}

func TestPackSliceGenericMatchesFloat64(t *testing.T) {
	// The generic pack/unpack moves any element type through the same
	// plan; float32 and complex128 must land exactly where float64 does.
	src := tpl(t, []int{9}, dad.BlockCyclicAxis(3, 2))
	dst := tpl(t, []int{9}, dad.BlockAxis(3))
	s := mustBuild(t, src, dst)
	srcLocals := fillByGlobal(src)
	for _, p := range s.Pairs {
		ref := make([]float64, p.Elems)
		PackSlice(p, srcLocals[p.SrcRank], ref)

		src32 := make([]float32, len(srcLocals[p.SrcRank]))
		for i, v := range srcLocals[p.SrcRank] {
			src32[i] = float32(v)
		}
		got32 := make([]float32, p.Elems)
		PackSlice(p, src32, got32)
		for i := range ref {
			if got32[i] != float32(ref[i]) {
				t.Fatalf("pair %d→%d float32 elem %d: got %v want %v", p.SrcRank, p.DstRank, i, got32[i], ref[i])
			}
		}

		// Unpack round-trips through a generic complex buffer too.
		dstLocal := make([]complex128, dst.LocalCount(p.DstRank))
		data := make([]complex128, p.Elems)
		for i, v := range ref {
			data[i] = complex(v, -v)
		}
		UnpackSlice(p, dstLocal, data)
		k := 0
		for _, r := range blocksOf(p) {
			for j := 0; j < r.N; j++ {
				if dstLocal[r.DstOff+j] != data[k] {
					t.Fatalf("pair %d→%d complex unpack misplaced element", p.SrcRank, p.DstRank)
				}
				k++
			}
		}
	}
}

package schedule

import (
	"math/rand"
	"testing"

	"mxn/internal/dad"
)

func TestComposeBasic(t *testing.T) {
	a := tpl(t, []int{12}, dad.BlockAxis(2))
	b := tpl(t, []int{12}, dad.CyclicAxis(3))
	c := tpl(t, []int{12}, dad.BlockAxis(4))
	s1 := mustBuild(t, a, b)
	s2 := mustBuild(t, b, c)
	fused, err := Compose(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if fused.Src != a || fused.Dst != c {
		t.Error("composed endpoints wrong")
	}
	if fused.TotalElems() != 12 {
		t.Errorf("total = %d", fused.TotalElems())
	}
	// One fused hop must equal two chained hops.
	srcLocals := fillByGlobal(a)
	wantMid := executeLocally(s1, srcLocals)
	want := executeLocally(s2, wantMid)
	got := executeLocally(fused, srcLocals)
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("rank %d elem %d: fused %v chained %v", r, i, got[r][i], want[r][i])
			}
		}
	}
	verifyRedistribution(t, c, got)
}

func TestComposeMismatchedIntermediate(t *testing.T) {
	a := tpl(t, []int{12}, dad.BlockAxis(2))
	b1 := tpl(t, []int{12}, dad.CyclicAxis(3))
	b2 := tpl(t, []int{12}, dad.BlockAxis(3)) // different intermediate layout
	c := tpl(t, []int{12}, dad.BlockAxis(4))
	s1 := mustBuild(t, a, b1)
	s2 := mustBuild(t, b2, c)
	if _, err := Compose(s1, s2); err == nil {
		t.Error("mismatched intermediates accepted")
	}
}

func TestComposeIdentityStages(t *testing.T) {
	// A→A composed with A→B equals A→B.
	a := tpl(t, []int{16}, dad.BlockAxis(4))
	b := tpl(t, []int{16}, dad.CyclicAxis(2))
	id := mustBuild(t, a, a)
	s := mustBuild(t, a, b)
	fused, err := Compose(id, s)
	if err != nil {
		t.Fatal(err)
	}
	verifyRedistribution(t, b, executeLocally(fused, fillByGlobal(a)))
}

func TestComposeChainOfThree(t *testing.T) {
	// Compose is associative in effect: fuse three hops pairwise.
	a := tpl(t, []int{18}, dad.BlockAxis(3))
	b := tpl(t, []int{18}, dad.BlockCyclicAxis(2, 2))
	c := tpl(t, []int{18}, dad.CyclicAxis(3))
	d := tpl(t, []int{18}, dad.BlockAxis(2))
	s1 := mustBuild(t, a, b)
	s2 := mustBuild(t, b, c)
	s3 := mustBuild(t, c, d)
	f12, err := Compose(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	f123, err := Compose(f12, s3)
	if err != nil {
		t.Fatal(err)
	}
	verifyRedistribution(t, d, executeLocally(f123, fillByGlobal(a)))
	// And the other association order.
	f23, err := Compose(s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	f123b, err := Compose(s1, f23)
	if err != nil {
		t.Fatal(err)
	}
	verifyRedistribution(t, d, executeLocally(f123b, fillByGlobal(a)))
}

// Property: fused == chained on random template triples.
func TestPropertyComposeMatchesChained(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		nd := 1 + rng.Intn(2)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 2 + rng.Intn(9)
		}
		mk := func() *dad.Template {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomAxis(rng, dims[a])
			}
			out, err := dad.NewTemplate(dims, axes)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		a, b, c := mk(), mk(), mk()
		s1 := mustBuild(t, a, b)
		s2 := mustBuild(t, b, c)
		fused, err := Compose(s1, s2)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		srcLocals := fillByGlobal(a)
		want := executeLocally(s2, executeLocally(s1, srcLocals))
		got := executeLocally(fused, srcLocals)
		for r := range want {
			for i := range want[r] {
				if got[r][i] != want[r][i] {
					t.Fatalf("trial %d (%s | %s | %s): rank %d elem %d: fused %v chained %v",
						trial, a.Key(), b.Key(), c.Key(), r, i, got[r][i], want[r][i])
				}
			}
		}
	}
}

func TestComposeMessageCount(t *testing.T) {
	// The fused schedule's message count is bounded by src×dst pairs, not
	// by the sum through the intermediate — the in-place optimization the
	// paper's pipelining discussion asks for.
	a := tpl(t, []int{64}, dad.BlockAxis(4))
	b := tpl(t, []int{64}, dad.CyclicAxis(8))
	c := tpl(t, []int{64}, dad.BlockAxis(4))
	s1 := mustBuild(t, a, b)
	s2 := mustBuild(t, b, c)
	fused, err := Compose(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if fused.NumMessages() > 16 {
		t.Errorf("fused schedule has %d messages for 4×4 rank pairs", fused.NumMessages())
	}
	if s1.NumMessages()+s2.NumMessages() <= fused.NumMessages() {
		t.Errorf("expected chained (%d+%d) to exceed fused (%d) for this pipeline",
			s1.NumMessages(), s2.NumMessages(), fused.NumMessages())
	}
}

// Property: for random M×K×N layout chains over one index space, the
// composed schedule conserves the data set — it moves exactly Size()
// elements (conservation) — and its pairwise transfers write every
// destination element exactly once (coverage, no overlap). Together with
// value integrity this is the correctness contract redistribution rests
// on: no element lost, none duplicated, none fabricated.
func TestPropertyComposeConservationAndCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 30; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(8)
		}
		mk := func() *dad.Template {
			axes := make([]dad.AxisDist, nd)
			for a := range axes {
				axes[a] = randomAxis(rng, dims[a])
			}
			out, err := dad.NewTemplate(dims, axes)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		src, mid, dst := mk(), mk(), mk()
		fused, err := Compose(mustBuild(t, src, mid), mustBuild(t, mid, dst))
		if err != nil {
			t.Fatalf("trial %d (%s | %s | %s): %v", trial, src.Key(), mid.Key(), dst.Key(), err)
		}

		// Conservation: the fused schedule moves the whole index space,
		// no more, no less.
		if fused.TotalElems() != src.Size() {
			t.Fatalf("trial %d (%s | %s | %s): fused schedule moves %d of %d elements",
				trial, src.Key(), mid.Key(), dst.Key(), fused.TotalElems(), src.Size())
		}

		// Coverage: unpacking a marker through every pair touches every
		// destination element exactly once.
		counts := make([][]int, dst.NumProcs())
		for r := range counts {
			counts[r] = make([]int, dst.LocalCount(r))
		}
		for _, p := range fused.Pairs {
			marker := make([]float64, p.Elems)
			for i := range marker {
				marker[i] = 1
			}
			touched := make([]float64, dst.LocalCount(p.DstRank))
			UnpackSlice(p, touched, marker)
			for i, v := range touched {
				if v != 0 {
					counts[p.DstRank][i]++
				}
			}
		}
		forEachIndex(dst.Dims(), func(idx []int) {
			r := dst.OwnerOf(idx)
			if n := counts[r][dst.LocalOffset(r, idx)]; n != 1 {
				t.Fatalf("trial %d (%s | %s | %s): index %v on dst rank %d written %d times, want exactly once",
					trial, src.Key(), mid.Key(), dst.Key(), idx, r, n)
			}
		})

		// Value integrity on top: the fused move lands every fingerprint
		// where the destination layout says it belongs.
		verifyRedistribution(t, dst, executeLocally(fused, fillByGlobal(src)))
	}
}

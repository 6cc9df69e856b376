package schedule

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mxn/internal/dad"
)

// The closed-form planner and the patch-enumeration planner are judged
// three ways. The canonical form — per rank pair, runs expanded to blocks,
// sorted by source offset and coalesced where adjacent in both local
// spaces — must match; so must the packed order, the (source offset,
// destination offset) sequence a pair's elements take on the wire; and,
// since every planner builds runs through one runBuilder, so must the
// runs themselves.
type pairKey struct{ src, dst int }

// blocksOf expands a plan's vector runs into their blocks, in packed
// order, each as a Count-1 run.
func blocksOf(p PairPlan) []Run {
	var out []Run
	for _, r := range p.Runs {
		for k := 0; k < r.Count; k++ {
			out = append(out, Run{SrcOff: r.SrcOff + k*r.SrcStride, DstOff: r.DstOff + k*r.DstStride, N: r.N, Count: 1})
		}
	}
	return out
}

// packedOrder lists every element of a plan as its (source offset,
// destination offset) pair, in packed order.
func packedOrder(p PairPlan) [][2]int {
	var out [][2]int
	for _, b := range blocksOf(p) {
		for i := 0; i < b.N; i++ {
			out = append(out, [2]int{b.SrcOff + i, b.DstOff + i})
		}
	}
	return out
}

func canonicalRuns(s *Schedule) map[pairKey][]Run {
	out := make(map[pairKey][]Run, len(s.Pairs))
	for _, p := range s.Pairs {
		k := pairKey{p.SrcRank, p.DstRank}
		out[k] = append(out[k], blocksOf(p)...)
	}
	for k, runs := range out {
		sort.Slice(runs, func(i, j int) bool { return runs[i].SrcOff < runs[j].SrcOff })
		merged := runs[:0]
		for _, r := range runs {
			if n := len(merged); n > 0 {
				last := &merged[n-1]
				if last.SrcOff+last.N == r.SrcOff && last.DstOff+last.N == r.DstOff {
					last.N += r.N
					continue
				}
			}
			merged = append(merged, r)
		}
		out[k] = merged
	}
	return out
}

// diffSchedules fails the test if two schedules are not element-for-element
// identical after canonicalization.
func diffSchedules(t *testing.T, label string, got, want *Schedule) {
	t.Helper()
	g, w := canonicalRuns(got), canonicalRuns(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d communicating pairs, want %d", label, len(g), len(w))
	}
	for k, wr := range w {
		gr, ok := g[k]
		if !ok {
			t.Fatalf("%s: pair %d→%d missing", label, k.src, k.dst)
		}
		if len(gr) != len(wr) {
			t.Fatalf("%s: pair %d→%d has %d canonical runs, want %d\n got: %v\nwant: %v",
				label, k.src, k.dst, len(gr), len(wr), gr, wr)
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: pair %d→%d run %d = %+v, want %+v",
					label, k.src, k.dst, i, gr[i], wr[i])
			}
		}
	}
	for i, p := range got.Pairs {
		q := want.Pairs[i]
		if p.SrcRank != q.SrcRank || p.DstRank != q.DstRank {
			t.Fatalf("%s: pair %d is %d→%d, want %d→%d", label, i, p.SrcRank, p.DstRank, q.SrcRank, q.DstRank)
		}
		g, w := packedOrder(p), packedOrder(q)
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: pair %d→%d packed element %d moves %v, want %v",
					label, p.SrcRank, p.DstRank, j, g[j], w[j])
			}
		}
		// One packed order, one form: the runs themselves agree.
		if !reflect.DeepEqual(p.Runs, q.Runs) {
			t.Fatalf("%s: pair %d→%d runs differ in form\n got: %v\nwant: %v", label, p.SrcRank, p.DstRank, p.Runs, q.Runs)
		}
	}
}

// checkCoverage asserts the schedule touches every source-local and every
// destination-local offset exactly once — together with TotalElems ==
// Size this is conservation: no element dropped, duplicated, or invented.
func checkCoverage(t *testing.T, label string, s *Schedule) {
	t.Helper()
	srcSeen := make([][]bool, s.Src.NumProcs())
	for r := range srcSeen {
		srcSeen[r] = make([]bool, s.Src.LocalCount(r))
	}
	dstSeen := make([][]bool, s.Dst.NumProcs())
	for r := range dstSeen {
		dstSeen[r] = make([]bool, s.Dst.LocalCount(r))
	}
	for _, p := range s.Pairs {
		for _, run := range blocksOf(p) {
			for i := 0; i < run.N; i++ {
				if srcSeen[p.SrcRank][run.SrcOff+i] {
					t.Fatalf("%s: src rank %d offset %d sent twice", label, p.SrcRank, run.SrcOff+i)
				}
				srcSeen[p.SrcRank][run.SrcOff+i] = true
				if dstSeen[p.DstRank][run.DstOff+i] {
					t.Fatalf("%s: dst rank %d offset %d written twice", label, p.DstRank, run.DstOff+i)
				}
				dstSeen[p.DstRank][run.DstOff+i] = true
			}
		}
	}
	for r, seen := range srcSeen {
		for off, ok := range seen {
			if !ok {
				t.Fatalf("%s: src rank %d offset %d never sent", label, r, off)
			}
		}
	}
	for r, seen := range dstSeen {
		for off, ok := range seen {
			if !ok {
				t.Fatalf("%s: dst rank %d offset %d never written", label, r, off)
			}
		}
	}
}

// checkLinear holds the linear planner to s: FromLinear over the row-major
// linearizations of s's templates must move exactly what s moves, in the
// same packed order and the same runs, and execute to the same result.
func checkLinear(t *testing.T, label string, s *Schedule) {
	t.Helper()
	lin, err := FromLinear(NewRowMajor(s.Src), NewRowMajor(s.Dst))
	if err != nil {
		t.Fatalf("%s: FromLinear: %v", label, err)
	}
	diffSchedules(t, label+" (linear)", byRankPair(lin), byRankPair(s))
	verifyRedistribution(t, s.Dst, executeLocally(lin, fillByGlobal(s.Src)))
}

// byRankPair returns s with its pairs in (source, destination) rank order:
// planners agree on each pair, not on the order they list the pairs in.
func byRankPair(s *Schedule) *Schedule {
	out := &Schedule{Src: s.Src, Dst: s.Dst, Pairs: append([]PairPlan(nil), s.Pairs...)}
	sort.Slice(out.Pairs, func(i, j int) bool {
		a, b := out.Pairs[i], out.Pairs[j]
		return a.SrcRank < b.SrcRank || (a.SrcRank == b.SrcRank && a.DstRank < b.DstRank)
	})
	return out
}

// randomRegularAxis draws from the regular distribution kinds only —
// irregular kinds (Implicit, GenBlock is regular but interval-class) never
// take the closed-form path, so the differential harness concentrates on
// pairs the fast path actually plans.
func randomRegularAxis(rng *rand.Rand, n int) dad.AxisDist {
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
	}
}

// randomPair draws the randomized layout corpus's next template pair:
// 1–3 axes of up to 20 elements, every axis of either side drawn by
// randomRegularAxis.
func randomPair(t testing.TB, rng *rand.Rand) (src, dst *dad.Template) {
	nd := 1 + rng.Intn(3)
	dims := make([]int, nd)
	for a := range dims {
		dims[a] = 1 + rng.Intn(20)
	}
	mk := func() *dad.Template {
		axes := make([]dad.AxisDist, nd)
		for a := range axes {
			axes[a] = randomRegularAxis(rng, dims[a])
		}
		return tpl(t, dims, axes...)
	}
	src = mk()
	return src, mk()
}

// Differential property: for every closed-form template pair, the
// arithmetic planner and the patch-enumeration planner must produce
// element-for-element identical schedules that move the elements in the
// same packed order.
func TestDifferentialFastVsEnumerator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	planned := 0
	for trial := 0; trial < 400; trial++ {
		src, dst := randomPair(t, rng)
		if !src.ClosedFormPair(dst) {
			// Incompatible strided block sizes: the fast path must
			// decline, and Build must still succeed via the enumerator.
			s := mustBuild(t, src, dst)
			if s.FastPath() {
				t.Fatalf("trial %d (%s → %s): fast path engaged for a non-closed-form pair",
					trial, src.Key(), dst.Key())
			}
			continue
		}
		planned++

		fast, err := Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.FastPath() {
			t.Fatalf("trial %d (%s → %s): closed-form pair fell back to the enumerator",
				trial, src.Key(), dst.Key())
		}
		ref, err := BuildWith(src, dst, BuildOpts{DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref.FastPath() {
			t.Fatal("DisableFastPath did not disable the fast path")
		}

		label := src.Key() + " → " + dst.Key()
		if fast.TotalElems() != src.Size() {
			t.Fatalf("%s: fast plan moves %d of %d elements", label, fast.TotalElems(), src.Size())
		}
		diffSchedules(t, label, fast, ref)
		checkCoverage(t, label, fast)
		checkLinear(t, label, fast)

		// The plan must also be executable: values survive the transfer.
		verifyRedistribution(t, dst, executeLocally(fast, fillByGlobal(src)))
		if t.Failed() {
			t.Fatalf("trial %d failed: %s", trial, label)
		}
	}
	if planned < 100 {
		t.Fatalf("only %d of 400 trials exercised the fast path — generator drifted", planned)
	}
}

// Directed cases covering every closed-form intersection class and the
// clipping edge cases (partial trailing blocks, extents far from multiples
// of block×procs, single-rank axes).
func TestDifferentialDirectedCases(t *testing.T) {
	cases := []struct {
		name     string
		dims     []int
		src, dst []dad.AxisDist
	}{
		{"block-block-1d", []int{17}, []dad.AxisDist{dad.BlockAxis(3)}, []dad.AxisDist{dad.BlockAxis(4)}},
		{"block-cyclic-1d", []int{23}, []dad.AxisDist{dad.BlockAxis(4)}, []dad.AxisDist{dad.CyclicAxis(3)}},
		{"cyclic-block-1d", []int{23}, []dad.AxisDist{dad.CyclicAxis(3)}, []dad.AxisDist{dad.BlockAxis(4)}},
		{"cyclic-cyclic-1d", []int{29}, []dad.AxisDist{dad.CyclicAxis(4)}, []dad.AxisDist{dad.CyclicAxis(6)}},
		{"bcyclic-bcyclic-equal-b", []int{37}, []dad.AxisDist{dad.BlockCyclicAxis(3, 4)}, []dad.AxisDist{dad.BlockCyclicAxis(5, 4)}},
		{"bcyclic-block-partial-tail", []int{19}, []dad.AxisDist{dad.BlockCyclicAxis(3, 4)}, []dad.AxisDist{dad.BlockAxis(2)}},
		{"genblock-cyclic", []int{16}, []dad.AxisDist{dad.GenBlockAxis([]int{0, 7, 9})}, []dad.AxisDist{dad.CyclicAxis(5)}},
		{"collapsed-bcyclic", []int{21}, []dad.AxisDist{dad.CollapsedAxis()}, []dad.AxisDist{dad.BlockCyclicAxis(2, 5)}},
		{"2d-transpose", []int{12, 18},
			[]dad.AxisDist{dad.BlockAxis(3), dad.CollapsedAxis()},
			[]dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(3)}},
		{"2d-mixed", []int{11, 13},
			[]dad.AxisDist{dad.CyclicAxis(2), dad.BlockAxis(3)},
			[]dad.AxisDist{dad.BlockCyclicAxis(3, 1), dad.GenBlockAxis([]int{4, 0, 9})}},
		{"3d-strided-last-axis", []int{5, 6, 14},
			[]dad.AxisDist{dad.BlockAxis(2), dad.CollapsedAxis(), dad.CyclicAxis(3)},
			[]dad.AxisDist{dad.CyclicAxis(2), dad.BlockAxis(2), dad.CyclicAxis(2)}},
		{"single-element", []int{1}, []dad.AxisDist{dad.BlockAxis(3)}, []dad.AxisDist{dad.CyclicAxis(2)}},
		{"block-cyclic-even", []int{64}, []dad.AxisDist{dad.BlockAxis(4)}, []dad.AxisDist{dad.CyclicAxis(3)}},
		{"cyclic-block-short-tail", []int{9}, []dad.AxisDist{dad.CyclicAxis(2)}, []dad.AxisDist{dad.BlockAxis(5)}},
		{"2d-cyclic-last-to-collapsed", []int{30, 7},
			[]dad.AxisDist{dad.BlockAxis(2), dad.CyclicAxis(3)},
			[]dad.AxisDist{dad.CyclicAxis(5), dad.CollapsedAxis()}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := tpl(t, c.dims, c.src...)
			dst := tpl(t, c.dims, c.dst...)
			if !src.ClosedFormPair(dst) {
				t.Fatalf("case is not closed-form: %s → %s", src.Key(), dst.Key())
			}
			fast := mustBuild(t, src, dst)
			if !fast.FastPath() {
				t.Fatal("fast path did not engage")
			}
			ref, err := BuildWith(src, dst, BuildOpts{DisableFastPath: true})
			if err != nil {
				t.Fatal(err)
			}
			diffSchedules(t, c.name, fast, ref)
			checkCoverage(t, c.name, fast)
			checkLinear(t, c.name, fast)
			verifyRedistribution(t, dst, executeLocally(fast, fillByGlobal(src)))
		})
	}
}

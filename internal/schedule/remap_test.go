package schedule

import (
	"testing"

	"mxn/internal/dad"
)

func TestRemapPlansFullMigration(t *testing.T) {
	old := tpl(t, []int{24}, dad.BlockAxis(4))
	next, err := dad.Reblock(old, 6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Remap(old, next)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalElems() != 24 {
		t.Fatalf("migration moves %d elements, want 24", s.TotalElems())
	}
	// Block→Block width change is interval×interval: the closed-form
	// planner must kick in, so resize planning stays arithmetic.
	if !s.FastPath() {
		t.Fatal("Block→Block remap did not take the closed-form path")
	}
	// Every new rank receives exactly its local count.
	for r := 0; r < next.NumProcs(); r++ {
		got := 0
		for _, p := range s.IncomingFor(r) {
			got += p.Elems
		}
		if got != next.LocalCount(r) {
			t.Fatalf("new rank %d receives %d elements, owns %d", r, got, next.LocalCount(r))
		}
	}
}

func TestRemapRejectsNonConforming(t *testing.T) {
	a := tpl(t, []int{24}, dad.BlockAxis(4))
	b := tpl(t, []int{20}, dad.BlockAxis(6))
	if _, err := Remap(a, b); err == nil {
		t.Fatal("non-conforming templates accepted")
	}
}

// genZeros builds a wide template where only the ranks in members own
// data — member i owns exactly what narrow rank i owns under a block
// split — so Expand's layout contract holds by construction.
func genZeros(t *testing.T, elems, wide int, members []int) *dad.Template {
	t.Helper()
	narrow := dad.BlockAxis(len(members))
	sizes := make([]int, wide)
	nt := tpl(t, []int{elems}, narrow)
	for i, m := range members {
		sizes[m] = nt.LocalCount(i)
	}
	return tpl(t, []int{elems}, dad.GenBlockAxis(sizes))
}

func TestExpandRenumbersIntoWiderCohort(t *testing.T) {
	const elems = 12
	a := tpl(t, []int{elems}, dad.BlockAxis(2))
	b := tpl(t, []int{elems}, dad.BlockAxis(3))
	s := mustBuild(t, a, b)

	// Narrow ranks live at wide ranks {1,2} (sources) and {0,2,3} (dests).
	srcMap := []int{1, 2}
	dstMap := []int{0, 2, 3}
	wideSrc := genZeros(t, elems, 4, srcMap)
	wideDst := genZeros(t, elems, 4, dstMap)

	e, err := Expand(s, wideSrc, wideDst, srcMap, dstMap)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Pairs) != len(s.Pairs) {
		t.Fatalf("expand changed pair count %d→%d", len(s.Pairs), len(e.Pairs))
	}
	if e.TotalElems() != s.TotalElems() {
		t.Fatalf("expand changed element total %d→%d", s.TotalElems(), e.TotalElems())
	}
	for i := range e.Pairs {
		p, o := &e.Pairs[i], &s.Pairs[i]
		if p.SrcRank != srcMap[o.SrcRank] || p.DstRank != dstMap[o.DstRank] {
			t.Fatalf("pair %d→%d relabeled to %d→%d", o.SrcRank, o.DstRank, p.SrcRank, p.DstRank)
		}
		// Runs share the original backing: relabeling is O(pairs), no copy.
		if len(p.Runs) > 0 && &p.Runs[0] != &o.Runs[0] {
			t.Fatal("expand copied run arrays")
		}
	}
	// Identity maps are the nil shorthand.
	idSrc := genZeros(t, elems, 4, []int{0, 1})
	sid := mustBuild(t, tpl(t, []int{elems}, dad.BlockAxis(2)), b)
	if _, err := Expand(sid, idSrc, wideDst, nil, dstMap); err != nil {
		t.Fatalf("nil (identity) source map: %v", err)
	}
}

func TestExpandValidatesContract(t *testing.T) {
	const elems = 12
	a := tpl(t, []int{elems}, dad.BlockAxis(2))
	b := tpl(t, []int{elems}, dad.BlockAxis(3))
	s := mustBuild(t, a, b)
	wideSrc := genZeros(t, elems, 4, []int{1, 2})
	wideDst := genZeros(t, elems, 4, []int{0, 2, 3})

	// Map entry outside the wide cohort.
	if _, err := Expand(s, wideSrc, wideDst, []int{1, 7}, []int{0, 2, 3}); err == nil {
		t.Fatal("out-of-range source map accepted")
	}
	// Map shorter than the narrow cohort.
	if _, err := Expand(s, wideSrc, wideDst, []int{1}, []int{0, 2, 3}); err == nil {
		t.Fatal("short source map accepted")
	}
	// A mapping that violates the local-count contract: wide rank 0 owns
	// nothing on the source side, but narrow source rank 0 owns 6.
	if _, err := Expand(s, wideSrc, wideDst, []int{0, 1}, []int{0, 2, 3}); err == nil {
		t.Fatal("local-count mismatch accepted")
	}
	// Non-conforming wide templates.
	tiny := tpl(t, []int{6}, dad.BlockAxis(4))
	if _, err := Expand(s, tiny, tiny, nil, nil); err == nil {
		t.Fatal("non-conforming wide templates accepted")
	}
}

func TestInvalidateTemplateScoped(t *testing.T) {
	a := tpl(t, []int{16}, dad.BlockAxis(2))
	b := tpl(t, []int{16}, dad.CyclicAxis(2))
	x := tpl(t, []int{32}, dad.BlockAxis(4))
	y := tpl(t, []int{32}, dad.CyclicAxis(3))
	c := NewCache()
	for _, pair := range [][2]*dad.Template{{a, b}, {b, a}, {x, y}} {
		if _, err := c.Get(pair[0], pair[1]); err != nil {
			t.Fatal(err)
		}
	}
	keep, err := c.Get(x, y)
	if err != nil {
		t.Fatal(err)
	}
	// Dropping a's plans must hit (a,b) and (b,a) but spare (x,y).
	if n := c.InvalidateTemplate(a); n != 2 {
		t.Fatalf("InvalidateTemplate dropped %d entries, want 2", n)
	}
	if got, err := c.Get(x, y); err != nil || got != keep {
		t.Fatal("unrelated coupling lost its cached plan")
	}
	if c.Invalidate(a, b) || c.Invalidate(b, a) {
		t.Fatal("resized coupling still cached")
	}
	if n := c.InvalidateTemplate(a); n != 0 {
		t.Fatalf("second InvalidateTemplate dropped %d", n)
	}
}

// Satellite: Restrict edge cases.

func TestRestrictToOneSurvivor(t *testing.T) {
	a := tpl(t, []int{24}, dad.BlockAxis(4))
	b := tpl(t, []int{24}, dad.CyclicAxis(3))
	s := mustBuild(t, a, b)
	const survivor = 2
	r := Restrict(s, func(rank int) bool { return rank == survivor }, nil)
	if len(r.Pairs) == 0 {
		t.Fatal("survivor's pairs dropped")
	}
	for _, p := range r.Pairs {
		if p.SrcRank != survivor {
			t.Fatalf("pair %d→%d survived a restriction to source %d", p.SrcRank, p.DstRank, survivor)
		}
	}
	if got, want := len(r.Pairs), len(s.OutgoingFor(survivor)); got != want {
		t.Fatalf("survivor keeps %d pairs, want %d", got, want)
	}
}

func TestRestrictZeroElementRank(t *testing.T) {
	// Source rank 1 owns zero elements: it appears in no pair, so
	// restricting it away is a no-op, and restricting *to* it leaves an
	// empty (but well-formed) schedule.
	a := tpl(t, []int{12}, dad.GenBlockAxis([]int{6, 0, 6}))
	b := tpl(t, []int{12}, dad.BlockAxis(2))
	s := mustBuild(t, a, b)
	if len(s.OutgoingFor(1)) != 0 {
		t.Fatal("zero-element rank has outgoing pairs")
	}
	drop := Restrict(s, func(rank int) bool { return rank != 1 }, nil)
	if len(drop.Pairs) != len(s.Pairs) {
		t.Fatal("dropping a zero-element rank changed the schedule")
	}
	only := Restrict(s, func(rank int) bool { return rank == 1 }, nil)
	if len(only.Pairs) != 0 {
		t.Fatal("restriction to a zero-element rank kept pairs")
	}
	if only.TotalElems() != 0 || len(only.IncomingFor(0)) != 0 {
		t.Fatal("empty restriction is not well-formed")
	}
}

func TestRestrictExpandRoundTrip(t *testing.T) {
	// A plan narrowed out of a wide cohort and re-expanded into it must
	// conserve ownership: same pairs, same totals, every element moved
	// exactly once, byte-identical runs.
	const elems = 24
	members := []int{0, 2, 3} // wide ranks hosting the narrow cohort
	wideSrc := genZeros(t, elems, 5, members)
	wideDst := genZeros(t, elems, 5, members)
	narrowSrc := tpl(t, []int{elems}, dad.BlockAxis(len(members)))
	narrowDst := tpl(t, []int{elems}, dad.BlockAxis(len(members)))

	narrow := mustBuild(t, narrowSrc, narrowDst)
	wide, err := Expand(narrow, wideSrc, wideDst, members, members)
	if err != nil {
		t.Fatal(err)
	}
	if wide.TotalElems() != elems {
		t.Fatalf("expanded plan moves %d of %d elements", wide.TotalElems(), elems)
	}
	// Each wide member receives exactly its ownership — nothing doubly
	// owned, nothing orphaned.
	in := map[int]int{}
	for _, p := range wide.Pairs {
		in[p.DstRank] += p.Elems
	}
	for r := 0; r < 5; r++ {
		if in[r] != wideDst.LocalCount(r) {
			t.Fatalf("wide rank %d receives %d elements, owns %d", r, in[r], wideDst.LocalCount(r))
		}
	}

	member := map[int]bool{}
	for _, m := range members {
		member[m] = true
	}
	back := Restrict(wide, func(r int) bool { return member[r] }, func(r int) bool { return member[r] })
	if len(back.Pairs) != len(wide.Pairs) {
		t.Fatalf("round trip lost pairs: %d→%d", len(wide.Pairs), len(back.Pairs))
	}
	for i := range back.Pairs {
		p, o := &back.Pairs[i], &wide.Pairs[i]
		if p.SrcRank != o.SrcRank || p.DstRank != o.DstRank || p.Elems != o.Elems {
			t.Fatalf("round trip rewrote pair %d", i)
		}
		for j := range p.Runs {
			if p.Runs[j] != o.Runs[j] {
				t.Fatalf("round trip changed run %d of pair %d", j, i)
			}
		}
	}
}

package schedule

import (
	"math/rand"
	"reflect"
	"testing"

	"mxn/internal/dad"
)

// LocalOrder is the example of a user-defined linearization: a template's
// ranks' canonical local buffers laid end to end in rank order, so the
// sender's layout drives the order. A receiver can use LocalOrder of the
// *sender's* template only with knowledge of that template — the
// implicit-knowledge coupling Section 2.2.1 warns about.
type LocalOrder struct{ t *dad.Template }

func (l LocalOrder) Template() *dad.Template { return l.t }

// Segments implements Linearizer: rank's one segment starts where the
// ranks before it end.
func (l LocalOrder) Segments(rank int) []Segment {
	base := 0
	for r := 0; r < rank; r++ {
		base += l.t.LocalCount(r)
	}
	if n := l.t.LocalCount(rank); n > 0 {
		return []Segment{{Pos: base, Off: 0, N: n}}
	}
	return nil
}

// A linearization other than row-major: the source's local buffers laid
// end to end, cyclic(2) over 6 elements (rank 0 holds globals 0, 2, 4 and
// rank 1 holds 1, 3, 5), into block(3) by row-major order. Positions 0–2
// are source rank 0's buffer and 3–5 source rank 1's, so destination rank
// 0 takes positions 0–1, rank 1 positions 2–3 and rank 2 positions 4–5 —
// worked out by hand below, in pairs and in values.
func TestFromLinearLocalOrderToRowMajor(t *testing.T) {
	src := tpl(t, []int{6}, dad.CyclicAxis(2))
	dst := tpl(t, []int{6}, dad.BlockAxis(3))
	s, err := FromLinear(LocalOrder{src}, NewRowMajor(dst))
	if err != nil {
		t.Fatal(err)
	}
	want := []PairPlan{
		{SrcRank: 0, DstRank: 0, Runs: []Run{{SrcOff: 0, DstOff: 0, N: 2, Count: 1}}, Elems: 2},
		{SrcRank: 0, DstRank: 1, Runs: []Run{{SrcOff: 2, DstOff: 0, N: 1, Count: 1}}, Elems: 1},
		{SrcRank: 1, DstRank: 1, Runs: []Run{{SrcOff: 0, DstOff: 1, N: 1, Count: 1}}, Elems: 1},
		{SrcRank: 1, DstRank: 2, Runs: []Run{{SrcOff: 1, DstOff: 0, N: 2, Count: 1}}, Elems: 2},
	}
	if got := byRankPair(s).Pairs; !reflect.DeepEqual(got, want) {
		t.Fatalf("pairs\n got: %+v\nwant: %+v", got, want)
	}
	got := executeLocally(s, [][]float64{{0, 2, 4}, {1, 3, 5}})
	if w := [][]float64{{0, 2}, {4, 1}, {3, 5}}; !reflect.DeepEqual(got, w) {
		t.Fatalf("destination buffers %v, want %v", got, w)
	}
}

func TestLocalOrder(t *testing.T) {
	b2 := tpl(t, []int{4, 4}, dad.BlockAxis(2), dad.BlockAxis(2))
	for r := 0; r < 4; r++ {
		if got, want := (LocalOrder{b2}).Segments(r), []Segment{{Pos: 4 * r, Off: 0, N: 4}}; !reflect.DeepEqual(got, want) {
			t.Errorf("rank %d: segments %v, want %v", r, got, want)
		}
	}
}

// offsetOf returns where segs keep position p, and whether they hold it.
func offsetOf(segs []Segment, p int) (int, bool) {
	for _, g := range segs {
		if g.Pos <= p && p < g.Pos+g.N {
			return g.Off + p - g.Pos, true
		}
	}
	return 0, false
}

// The ranks' segments partition the linear space: every position is held
// by exactly one rank, and each rank's segments fill its local buffer.
// Adjacent rows of a patch merge: a rank's 3×4 block is three segments.
func TestRowMajorSegmentsPartition(t *testing.T) {
	b2 := tpl(t, []int{6, 8}, dad.BlockAxis(2), dad.BlockAxis(2))
	rm := NewRowMajor(b2)
	seen := make([]int, b2.Size())
	for r := 0; r < b2.NumProcs(); r++ {
		segs := rm.Segments(r)
		if len(segs) != 3 {
			t.Errorf("rank %d: %d segments %v, want one per row", r, len(segs), segs)
		}
		n := 0
		for _, g := range segs {
			for p := g.Pos; p < g.Pos+g.N; p++ {
				seen[p]++
			}
			n += g.N
		}
		if n != b2.LocalCount(r) {
			t.Errorf("rank %d: segments hold %d positions, buffer %d", r, n, b2.LocalCount(r))
		}
	}
	for p, k := range seen {
		if k != 1 {
			t.Fatalf("position %d held %d times", p, k)
		}
	}
	if got := rm.Segments(0); !reflect.DeepEqual(got, []Segment{{0, 0, 4}, {8, 4, 4}, {16, 8, 4}}) {
		t.Errorf("rank 0 segments %v", got)
	}
	if got := NewRowMajor(tpl(t, []int{6, 8}, dad.BlockAxis(2), dad.CollapsedAxis())).Segments(1); !reflect.DeepEqual(got, []Segment{{24, 0, 24}}) {
		t.Errorf("collapsed rows did not merge: %v", got)
	}
}

// Each rank's segments map its positions one-to-one onto its canonical
// local buffer: packing a rank's whole buffer by segments and unpacking it
// restores it.
func TestRowMajorPackUnpackRoundTrip(t *testing.T) {
	tpl2 := tpl(t, []int{4, 6}, dad.BlockAxis(2), dad.BlockAxis(3))
	rm := NewRowMajor(tpl2)
	for r := 0; r < tpl2.NumProcs(); r++ {
		local := make([]float64, tpl2.LocalCount(r))
		for i := range local {
			local[i] = float64(r*100 + i)
		}
		var packed []float64
		for _, g := range rm.Segments(r) {
			packed = append(packed, local[g.Off:g.Off+g.N]...)
		}
		restored := make([]float64, len(local))
		k := 0
		for _, g := range rm.Segments(r) {
			k += copy(restored[g.Off:g.Off+g.N], packed[k:])
		}
		if k != len(local) || !reflect.DeepEqual(restored, local) {
			t.Fatalf("rank %d: restored %v from %d packed, want %v", r, restored, k, local)
		}
	}
}

// 1-D array of 8 on 2 blocks, v[g] = 10*g: positions {1, 2, 6} pack as 10,
// 20 from rank 0 and 60 from rank 1.
func TestRowMajorPackSubset(t *testing.T) {
	b8 := tpl(t, []int{8}, dad.BlockAxis(2))
	locals := [][]float64{{0, 10, 20, 30}, {40, 50, 60, 70}}
	for _, c := range []struct{ rank, pos, want int }{{0, 1, 10}, {0, 2, 20}, {1, 6, 60}} {
		off, ok := offsetOf(NewRowMajor(b8).Segments(c.rank), c.pos)
		if !ok || locals[c.rank][off] != float64(c.want) {
			t.Errorf("rank %d position %d: offset %d (%v), want value %d", c.rank, c.pos, off, ok, c.want)
		}
	}
}

// Property: on random templates, regular and explicit, every linear
// position is held by its owner alone, at the offset the template gives
// its global index, and the row-major pair lowers to an identity move.
func TestRowMajorAgreesWithOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []func(p int) dad.AxisDist{
		dad.BlockAxis,
		dad.CyclicAxis,
		func(p int) dad.AxisDist { return dad.BlockCyclicAxis(p, 2) },
	}
	var tpls []*dad.Template
	for trial := 0; trial < 20; trial++ {
		tpls = append(tpls, tpl(t, []int{2 + rng.Intn(6), 2 + rng.Intn(6)},
			kinds[rng.Intn(len(kinds))](1+rng.Intn(3)), kinds[rng.Intn(len(kinds))](1+rng.Intn(3))))
	}
	// Rank 0's patches are registered right column first, so their rows
	// are out of position order until Segments sorts them.
	ex, err := dad.NewExplicitTemplate([]int{4, 6}, 2, []dad.Patch{
		dad.NewPatch([]int{0, 4}, []int{4, 6}, 0),
		dad.NewPatch([]int{0, 0}, []int{2, 4}, 0),
		dad.NewPatch([]int{2, 0}, []int{4, 4}, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	tpls = append(tpls, ex)
	for _, tp := range tpls {
		rm := NewRowMajor(tp)
		cols := tp.Dim(1)
		for p := 0; p < tp.Size(); p++ {
			idx := []int{p / cols, p % cols}
			owner := tp.OwnerOf(idx)
			for r := 0; r < tp.NumProcs(); r++ {
				off, ok := offsetOf(rm.Segments(r), p)
				if ok != (r == owner) || ok && off != tp.LocalOffset(r, idx) {
					t.Fatalf("%v: pos %d (idx %v): rank %d holds it %v at %d, owner %d", tp, p, idx, r, ok, off, owner)
				}
			}
		}
		s, err := FromLinear(rm, rm)
		if err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
		verifyRedistribution(t, tp, executeLocally(s, fillByGlobal(tp)))
	}
}

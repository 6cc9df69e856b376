package schedule

import (
	"reflect"
	"testing"

	"mxn/internal/dad"
	"mxn/internal/linear"
)

// A linearization other than row-major: the source's local buffers laid
// end to end, cyclic(2) over 6 elements (rank 0 holds globals 0, 2, 4 and
// rank 1 holds 1, 3, 5), into block(3) by row-major order. Positions 0–2
// are source rank 0's buffer and 3–5 source rank 1's, so destination rank
// 0 takes positions 0–1, rank 1 positions 2–3 and rank 2 positions 4–5 —
// worked out by hand below, in pairs and in values.
func TestFromLinearLocalOrderToRowMajor(t *testing.T) {
	src := tpl(t, []int{6}, dad.CyclicAxis(2))
	dst := tpl(t, []int{6}, dad.BlockAxis(3))
	s, err := FromLinear(linear.NewLocalOrder(src), linear.NewRowMajor(dst))
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

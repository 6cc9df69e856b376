package mxn_test

import (
	"reflect"
	"testing"

	"mxn"
)

// reverseRanks is a user-defined linearization written against the
// public package alone: a template's ranks' canonical local buffers laid
// end to end, last rank first.
type reverseRanks struct{ t *mxn.Template }

func (l reverseRanks) Template() *mxn.Template { return l.t }

func (l reverseRanks) Segments(rank int) []mxn.Segment {
	pos := 0
	for r := l.t.NumProcs() - 1; r > rank; r-- {
		pos += l.t.LocalCount(r)
	}
	if n := l.t.LocalCount(rank); n > 0 {
		return []mxn.Segment{{Pos: pos, Off: 0, N: n}}
	}
	return nil
}

// A Linearizer can be implemented outside the module and planned with
// LinearSchedule. Source: cyclic(2) over 6 elements, rank 0 holding
// globals 0, 2, 4 and rank 1 globals 1, 3, 5, linearized rank 1's buffer
// first, so positions 0–5 hold 1, 3, 5, 0, 2, 4. Destination: block(3)
// in row-major order, two positions a rank.
func TestUserLinearizerOutsideModule(t *testing.T) {
	src, err := mxn.NewTemplate([]int{6}, []mxn.AxisDist{mxn.CyclicAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := mxn.NewTemplate([]int{6}, []mxn.AxisDist{mxn.BlockAxis(3)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := mxn.LinearSchedule(reverseRanks{src}, mxn.RowMajorLinearization(dst))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalElems() != 6 {
		t.Fatalf("schedule moves %d of 6 elements", s.TotalElems())
	}
	dstLocals := [][]float64{make([]float64, 2), make([]float64, 2), make([]float64, 2)}
	mxn.ExecuteLocal(s, [][]float64{{0, 2, 4}, {1, 3, 5}}, dstLocals)
	if want := [][]float64{{1, 3}, {5, 0}, {2, 4}}; !reflect.DeepEqual(dstLocals, want) {
		t.Fatalf("destination buffers %v, want %v", dstLocals, want)
	}
}

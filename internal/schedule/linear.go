package schedule

import (
	"fmt"

	"mxn/internal/linear"
)

// FromLinear lowers a linearization (Section 2.2.1) to a schedule: source
// rank s sends destination rank d the positions both own, in position
// order, each from where srcLin keeps it to where dstLin keeps it. Every
// rank holds both linearizers, so each source knows what each destination
// needs without being told — the per-transfer requests of the Indiana
// MPI-IO M×N device are computed here once, when the coupling is built.
// The runs come from the same runBuilder Build uses, so a row-major pair
// gets the vector runs Build gives the two templates.
//
// Both linearizations must span the same number of positions, and every
// destination position must have exactly one source: a position no source
// owns (a gap) or one that two sources own (an overlap) is an error here,
// before any traffic moves.
func FromLinear(srcLin, dstLin linear.Linearizer) (*Schedule, error) {
	src, dst := srcLin.Template(), dstLin.Template()
	if src.Size() != dst.Size() {
		return nil, fmt.Errorf("schedule: linearizations disagree on length: %d vs %d", src.Size(), dst.Size())
	}
	owned := make([]linear.Set, src.NumProcs())
	for s := range owned {
		owned[s] = srcLin.OwnedBy(s)
	}
	out := &Schedule{Src: src, Dst: dst}
	for d := 0; d < dst.NumProcs(); d++ {
		need := dstLin.OwnedBy(d)
		covered := 0
		for s, have := range owned {
			b := runBuilder{out: []Run{}}
			for _, iv := range have.Intersect(need) {
				for p := iv.Lo; p < iv.Hi; p++ {
					b.add(Run{SrcOff: srcLin.Offset(s, p), DstOff: dstLin.Offset(d, p), N: 1, Count: 1})
				}
			}
			if b.elems > 0 {
				out.Pairs = append(out.Pairs, PairPlan{SrcRank: s, DstRank: d, Runs: b.finish(), Elems: b.elems})
			}
			covered += b.elems
		}
		switch want := need.Len(); {
		case covered < want:
			return nil, fmt.Errorf("schedule: linearization gap: destination rank %d needs %d positions, sources own %d of them", d, want, covered)
		case covered > want:
			return nil, fmt.Errorf("schedule: linearization overlap: destination rank %d needs %d positions, sources own %d of them", d, want, covered)
		}
	}
	out.index()
	return out, nil
}

package schedule

import (
	"fmt"
	"slices"

	"mxn/internal/dad"
)

// Segment says that linear positions [Pos, Pos+N) live at offsets
// [Off, Off+N) of a rank's canonical local buffer.
type Segment struct{ Pos, Off, N int }

// Linearizer maps the elements of one side's distributed data structure to
// the positions of an abstract one-dimensional arrangement (Section 2.2.1,
// after Meta-Chaos and the Indiana MPI-IO M×N device): position k of the
// source is position k of the destination. That the two sides agree on it
// is application knowledge, not middleware knowledge — the caveat the
// paper highlights. A linearizer says where a position lives, never what
// is stored there, and FromLinear lowers a pair to a schedule once.
type Linearizer interface {
	// Template returns the template whose ranks' canonical local buffers
	// the positions map into. Its size is the length of the linear space.
	Template() *dad.Template
	// Segments returns where rank keeps its positions: non-empty segments
	// in increasing, non-overlapping position order, no two positions at
	// one offset.
	Segments(rank int) []Segment
}

// RowMajor linearizes a distributed array template by the row-major order
// of its global index space — the natural linearization for dense arrays.
type RowMajor struct{ t *dad.Template }

// NewRowMajor builds a row-major linearizer for a template.
func NewRowMajor(t *dad.Template) *RowMajor { return &RowMajor{t} }

// Template implements Linearizer.
func (rm *RowMajor) Template() *dad.Template { return rm.t }

// Segments implements Linearizer: one segment per last-axis row of each
// owned patch, rows that abut in position and offset merged. A regular
// template's buffer holds its per-axis owned index sets row-major, so a
// walk of those intervals gives positions in order and offsets one after
// another, with no patch built. An explicit template's buffer holds its
// patches in turn, each row-major, so their rows are sorted after the walk.
func (rm *RowMajor) Segments(rank int) []Segment {
	t := rm.t
	ivs := make([][]dad.Interval, t.NumAxes())
	if !t.IsExplicit() {
		coords := t.Coords(rank)
		for a := range ivs {
			ivs[a] = t.Axis(a).Intervals(t.Dim(a), coords[a])
		}
		segs, _ := rm.rows(ivs, 0, nil, 0)
		return segs
	}
	segs, off := []Segment(nil), 0
	for _, p := range t.Patches(rank) {
		for a := range ivs {
			ivs[a] = []dad.Interval{{Lo: p.Lo[a], Hi: p.Hi[a]}}
		}
		segs, off = rm.rows(ivs, 0, segs, off)
	}
	slices.SortFunc(segs, func(x, y Segment) int { return x.Pos - y.Pos })
	return segs
}

// rows appends to segs, at offsets from off, the last-axis rows of the
// product of the intervals ivs of the trailing axes, whose leading indices
// make the row-major index lead, and returns the segments and next offset.
func (rm *RowMajor) rows(ivs [][]dad.Interval, lead int, segs []Segment, off int) ([]Segment, int) {
	lead *= rm.t.Dim(rm.t.NumAxes() - len(ivs))
	for _, iv := range ivs[0] {
		if len(ivs) > 1 {
			for g := iv.Lo; g < iv.Hi; g++ {
				segs, off = rm.rows(ivs[1:], lead+g, segs, off)
			}
			continue
		}
		if l := len(segs) - 1; l >= 0 && segs[l].Pos+segs[l].N == lead+iv.Lo && segs[l].Off+segs[l].N == off {
			segs[l].N += iv.Len()
		} else {
			segs = append(segs, Segment{Pos: lead + iv.Lo, Off: off, N: iv.Len()})
		}
		off += iv.Len()
	}
	return segs, off
}

// FromLinear lowers a linearization to a schedule: source rank s sends
// destination rank d the positions both own, in position order. Every rank
// holds both linearizers, so what the Indiana device's receivers request
// on every transfer is computed here once. Each overlap of a source
// segment with a destination segment is one block for the runBuilder
// Build uses, so a row-major pair gets the runs Build gives the templates.
//
// A Linearizer is caller-supplied, so FromLinear fails, before any traffic
// moves, on a malformed segment list, on lengths that disagree, on a
// position two sources own (an overlap), and on a destination position no
// source owns (a gap).
func FromLinear(srcLin, dstLin Linearizer) (*Schedule, error) {
	src, dst := srcLin.Template(), dstLin.Template()
	if src.Size() != dst.Size() {
		return nil, fmt.Errorf("schedule: linearizations disagree on length: %d vs %d", src.Size(), dst.Size())
	}
	have, err := segments(srcLin, "source")
	if err != nil {
		return nil, err
	}
	all := slices.Concat(have...)
	slices.SortFunc(all, func(x, y Segment) int { return x.Pos - y.Pos })
	for i := 1; i < len(all); i++ {
		if all[i].Pos < all[i-1].Pos+all[i-1].N {
			return nil, fmt.Errorf("schedule: linearization overlap: two source ranks own position %d", all[i].Pos)
		}
	}
	need, err := segments(dstLin, "destination")
	if err != nil {
		return nil, err
	}
	out := &Schedule{Src: src, Dst: dst}
	for d, ds := range need {
		want, covered := 0, 0
		for _, y := range ds {
			want += y.N
		}
		for s, ss := range have {
			b := runBuilder{out: []Run{}}
			for i, j := 0, 0; i < len(ss) && j < len(ds); {
				x, y := ss[i], ds[j]
				lo, hi := max(x.Pos, y.Pos), min(x.Pos+x.N, y.Pos+y.N)
				if lo < hi {
					b.add(Run{SrcOff: x.Off + lo - x.Pos, DstOff: y.Off + lo - y.Pos, N: hi - lo, Count: 1})
				}
				if x.Pos+x.N < y.Pos+y.N {
					i++
				} else {
					j++
				}
			}
			if b.elems > 0 {
				out.Pairs = append(out.Pairs, PairPlan{SrcRank: s, DstRank: d, Runs: b.finish(), Elems: b.elems})
			}
			covered += b.elems
		}
		if covered < want {
			return nil, fmt.Errorf("schedule: linearization gap: destination rank %d needs %d positions, sources own %d of them", d, want, covered)
		}
	}
	out.index()
	return out, nil
}

// segments returns the segments of every rank of l, checked.
func segments(l Linearizer, side string) ([][]Segment, error) {
	t := l.Template()
	out := make([][]Segment, t.NumProcs())
	for r := range out {
		out[r] = l.Segments(r)
		size, local, end := t.Size(), t.LocalCount(r), 0
		for _, g := range out[r] {
			if g.N <= 0 || g.Pos < end || g.Pos > size-g.N || g.Off < 0 || g.Off > local-g.N {
				return nil, fmt.Errorf("schedule: malformed linearization: %s rank %d has segment %+v: want one non-empty, after the segment before it, within %d positions and a %d-element buffer", side, r, g, size, local)
			}
			end = g.Pos + g.N
		}
	}
	return out, nil
}

// Package linear implements the linearization intermediate representation
// for M×N data redistribution (Section 2.2.1 of the paper, following
// Meta-Chaos and the Indiana MPI-IO M×N device).
//
// In this method the elements of a distributed data structure are mapped to
// an abstract one-dimensional arrangement. Source and destination describe
// which linear positions they own; the mapping between the two sides is
// implicit — position k on the sender corresponds to position k on the
// receiver. The linearization is purely logical: no serialized intermediate
// copy of the data is ever produced. schedule.FromLinear lowers a pair of
// linearizers to an ordinary communication schedule once, when a coupling
// is built, so a linearized transfer runs through the same engine, and at
// the same per-step cost, as one planned from two templates.
//
// The package provides the interval-set algebra over linear positions and
// linearizers for distributed arrays. Applications control the mapping by
// choosing (or implementing) a Linearizer, which is exactly the flexibility
// — and the burden — the paper attributes to the approach: the receiver
// must know how the sender linearized the data to interpret it.
package linear

import (
	"fmt"
	"sort"

	"mxn/internal/dad"
)

// Interval is a half-open range [Lo, Hi) of linear positions.
type Interval struct {
	Lo, Hi int
}

// Len returns the number of positions in the interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// Set is a normalized interval set: sorted, disjoint, non-adjacent,
// non-empty intervals. The zero value is the empty set.
type Set []Interval

// NewSet normalizes arbitrary intervals into a Set, merging overlaps and
// adjacencies and dropping empties.
func NewSet(ivs ...Interval) Set {
	var s Set
	for _, iv := range ivs {
		if iv.Lo < iv.Hi {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Lo < s[j].Lo })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.Lo <= out[n-1].Hi {
			if iv.Hi > out[n-1].Hi {
				out[n-1].Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Len returns the total number of positions in the set.
func (s Set) Len() int {
	n := 0
	for _, iv := range s {
		n += iv.Len()
	}
	return n
}

// Intersect returns the positions common to s and t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		lo := max(s[i].Lo, t[j].Lo)
		hi := min(s[i].Hi, t[j].Hi)
		if lo < hi {
			out = append(out, Interval{lo, hi})
		}
		if s[i].Hi < t[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// String renders the set compactly.
func (s Set) String() string {
	out := "{"
	for i, iv := range s {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d:%d", iv.Lo, iv.Hi)
	}
	return out + "}"
}

// Linearizer maps the elements of one side's distributed data structure to
// linear positions. Implementations must agree between sender and receiver
// for the transfer to be meaningful — that agreement is application
// knowledge, not middleware knowledge (the linearization caveat the paper
// highlights). The position algebra is independent of the element type,
// and so is a linearizer: it says where a position lives, never what is
// stored there.
type Linearizer interface {
	// Template returns the template whose ranks' canonical local buffers
	// the positions map into. Its size is the length of the linear space.
	Template() *dad.Template
	// OwnedBy returns the linear positions rank owns, as a normalized Set.
	OwnedBy(rank int) Set
	// Offset returns the offset of linear position p in rank's canonical
	// local buffer; rank must own p.
	Offset(rank, p int) int
}

// RowMajor linearizes a distributed array template by the row-major order
// of its global index space — the natural linearization for dense arrays.
type RowMajor struct {
	t       *dad.Template
	strides []int
}

// NewRowMajor builds a row-major linearizer for a template.
func NewRowMajor(t *dad.Template) *RowMajor {
	dims := t.Dims()
	strides := make([]int, len(dims))
	s := 1
	for a := len(dims) - 1; a >= 0; a-- {
		strides[a] = s
		s *= dims[a]
	}
	return &RowMajor{t: t, strides: strides}
}

// Template implements Linearizer.
func (rm *RowMajor) Template() *dad.Template { return rm.t }

// position returns the linear position of a global index.
func (rm *RowMajor) position(idx []int) int {
	p := 0
	for a, i := range idx {
		p += i * rm.strides[a]
	}
	return p
}

// OwnedBy returns rank's linear positions: each row of each owned patch is
// one interval.
func (rm *RowMajor) OwnedBy(rank int) Set {
	var ivs []Interval
	for _, p := range rm.t.Patches(rank) {
		rowLen := p.Hi[len(p.Hi)-1] - p.Lo[len(p.Lo)-1]
		forEachRow(p, func(rowStart []int) {
			pos := rm.position(rowStart)
			ivs = append(ivs, Interval{pos, pos + rowLen})
		})
	}
	return NewSet(ivs...)
}

// Offset implements Linearizer: the global index of position p, placed
// by the template.
func (rm *RowMajor) Offset(rank, p int) int {
	var buf [4]int // an index of up to four axes stays on the stack
	idx := buf[:]
	if len(rm.strides) > len(buf) {
		idx = make([]int, len(rm.strides))
	}
	idx = idx[:len(rm.strides)]
	for a, s := range rm.strides {
		idx[a] = p / s
		p %= s
	}
	return rm.t.LocalOffset(rank, idx)
}

// forEachRow invokes fn with the starting global index of every
// (last-axis) row of the patch. The slice passed to fn is reused.
func forEachRow(p dad.Patch, fn func(rowStart []int)) {
	n := p.NumAxes()
	idx := make([]int, n)
	copy(idx, p.Lo)
	for {
		fn(idx)
		a := n - 2
		for a >= 0 {
			idx[a]++
			if idx[a] < p.Hi[a] {
				break
			}
			idx[a] = p.Lo[a]
			a--
		}
		if a < 0 {
			return
		}
	}
}

// LocalOrder linearizes a template by the concatenation of each rank's
// canonical local buffers in rank order. It demonstrates an
// application-defined linearization where the sender's layout drives the
// ordering: a receiver using LocalOrder of the *sender's* template can
// reconstruct the data only with knowledge of that template — precisely
// the implicit-knowledge coupling Section 2.2.1 warns about.
type LocalOrder struct {
	t        *dad.Template
	rankBase []int // starting linear position of each rank's block
}

// NewLocalOrder builds a local-order linearizer for a template.
func NewLocalOrder(t *dad.Template) *LocalOrder {
	lo := &LocalOrder{t: t, rankBase: make([]int, t.NumProcs()+1)}
	for r := 0; r < t.NumProcs(); r++ {
		lo.rankBase[r+1] = lo.rankBase[r] + t.LocalCount(r)
	}
	return lo
}

// Template implements Linearizer.
func (l *LocalOrder) Template() *dad.Template { return l.t }

// OwnedBy returns rank's single contiguous interval.
func (l *LocalOrder) OwnedBy(rank int) Set {
	return NewSet(Interval{l.rankBase[rank], l.rankBase[rank+1]})
}

// Offset implements Linearizer: local order means a position's offset is
// its distance from the start of the rank's block.
func (l *LocalOrder) Offset(rank, p int) int { return p - l.rankBase[rank] }

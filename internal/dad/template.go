package dad

import (
	"fmt"
	"sort"
	"strings"
)

// Template describes the logical distribution of a dense multidimensional
// global index space across the ranks of a parallel component. Actual
// arrays are aligned to templates (see Descriptor); many arrays can share
// one template, which is what makes communication schedules reusable.
//
// A template is either regular — one AxisDist per axis over a process grid,
// with ranks assigned to grid coordinates in row-major order — or explicit:
// an arbitrary set of non-overlapping rectangular patches that tile the
// index space, each owned by a rank.
//
// Templates are immutable after construction and safe for concurrent use.
type Template struct {
	dims     []int
	axes     []AxisDist // regular templates; nil for explicit
	explicit []Patch    // explicit templates; nil for regular
	nprocs   int

	// Regular-template precomputation.
	gridStride []int   // row-major strides over the process grid
	axisPos    [][]int // per-axis local positions for Implicit axes

	// Explicit-template precomputation.
	rankPatches [][]int // rank -> indices into explicit
	rankOffsets [][]int // rank -> starting offset of each patch in the local buffer
	rankCounts  []int   // rank -> total local elements

	key string // Key, computed once at construction
}

// NewTemplate builds a regular template: dims gives the global extent per
// axis, axes the per-axis distribution. The number of ranks is the product
// of the per-axis process-grid extents, with ranks mapped to grid
// coordinates in row-major order.
func NewTemplate(dims []int, axes []AxisDist) (*Template, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dad: template needs at least one axis")
	}
	if len(axes) != len(dims) {
		return nil, fmt.Errorf("dad: %d axis distributions for %d dims", len(axes), len(dims))
	}
	for a, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("dad: dim %d is negative (%d)", a, d)
		}
		if err := axes[a].validate(d); err != nil {
			return nil, fmt.Errorf("axis %d: %w", a, err)
		}
	}
	t := &Template{
		dims:   append([]int(nil), dims...),
		axes:   make([]AxisDist, len(axes)),
		nprocs: 1,
	}
	for a, ax := range axes {
		t.axes[a] = ax.clone()
	}
	// Row-major rank mapping: rank = sum coords[a]*stride[a], with the last
	// grid axis varying fastest.
	t.gridStride = make([]int, len(axes))
	for a := len(axes) - 1; a >= 0; a-- {
		t.gridStride[a] = t.nprocs
		t.nprocs *= axes[a].Procs
	}
	// Precompute local positions for implicit axes so LocalOffset is O(1).
	t.axisPos = make([][]int, len(axes))
	for a, ax := range t.axes {
		if ax.Kind != Implicit {
			continue
		}
		pos := make([]int, dims[a])
		counters := make([]int, ax.Procs)
		for g := 0; g < dims[a]; g++ {
			c := ax.Owner[g]
			pos[g] = counters[c]
			counters[c]++
		}
		t.axisPos[a] = pos
	}
	// Precompute per-rank local element counts: LocalCount sits on the
	// transfer hot path (buffer validation on every exchange) and must not
	// allocate grid coordinates per call.
	t.rankCounts = make([]int, t.nprocs)
	for r := 0; r < t.nprocs; r++ {
		n := 1
		for a := range t.axes {
			c := (r / t.gridStride[a]) % t.axes[a].Procs
			n *= t.axes[a].localCount(t.dims[a], c)
		}
		t.rankCounts[r] = n
	}
	t.key = t.makeKey()
	return t, nil
}

// NewExplicitTemplate builds an explicit template over nprocs ranks from
// patches that must not overlap and must completely tile the dims box
// (the paper's Explicit distribution contract).
func NewExplicitTemplate(dims []int, nprocs int, patches []Patch) (*Template, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("dad: template needs at least one axis")
	}
	if nprocs < 1 {
		return nil, fmt.Errorf("dad: explicit template needs at least one rank")
	}
	total := 1
	for a, d := range dims {
		if d < 0 {
			return nil, fmt.Errorf("dad: dim %d is negative (%d)", a, d)
		}
		total *= d
	}
	// Validate every patch before the pairwise overlap pass: Intersect
	// assumes both operands span len(dims) axes, so a malformed later patch
	// must be rejected before an earlier one is intersected against it.
	covered := 0
	for _, p := range patches {
		if err := p.validate(dims, nprocs); err != nil {
			return nil, err
		}
		covered += p.Size()
	}
	for i, p := range patches {
		for j := i + 1; j < len(patches); j++ {
			if _, overlap := p.Intersect(patches[j]); overlap {
				return nil, fmt.Errorf("dad: patches %v and %v overlap", p, patches[j])
			}
		}
	}
	if covered != total {
		return nil, fmt.Errorf("dad: patches cover %d of %d elements", covered, total)
	}
	t := &Template{
		dims:     append([]int(nil), dims...),
		explicit: make([]Patch, len(patches)),
		nprocs:   nprocs,
	}
	for i, p := range patches {
		t.explicit[i] = NewPatch(p.Lo, p.Hi, p.Owner)
	}
	t.rankPatches = make([][]int, nprocs)
	t.rankOffsets = make([][]int, nprocs)
	t.rankCounts = make([]int, nprocs)
	for i, p := range t.explicit {
		r := p.Owner
		t.rankPatches[r] = append(t.rankPatches[r], i)
		t.rankOffsets[r] = append(t.rankOffsets[r], t.rankCounts[r])
		t.rankCounts[r] += p.Size()
	}
	t.key = t.makeKey()
	return t, nil
}

// IsExplicit reports whether the template uses the global explicit
// (arbitrary rectangular patch) distribution.
func (t *Template) IsExplicit() bool { return t.explicit != nil }

// Dims returns a copy of the global extents.
func (t *Template) Dims() []int { return append([]int(nil), t.dims...) }

// Dim returns the global extent of axis a without copying (the
// allocation-free alternative to Dims for per-axis hot paths).
func (t *Template) Dim(a int) int { return t.dims[a] }

// NumAxes returns the template dimensionality.
func (t *Template) NumAxes() int { return len(t.dims) }

// NumProcs returns the number of ranks the template is distributed over.
func (t *Template) NumProcs() int { return t.nprocs }

// Size returns the total number of elements in the global index space.
func (t *Template) Size() int {
	n := 1
	for _, d := range t.dims {
		n *= d
	}
	return n
}

// Axis returns a copy of the distribution of axis a: changing its Sizes
// or Owner does not change the template. Panics for explicit templates.
func (t *Template) Axis(a int) AxisDist {
	if t.IsExplicit() {
		panic("dad: Axis on explicit template")
	}
	return t.axes[a].clone()
}

// Coords returns the process-grid coordinates of a rank (regular templates
// only; explicit templates have no grid).
func (t *Template) Coords(rank int) []int {
	if t.IsExplicit() {
		panic("dad: Coords on explicit template")
	}
	coords := make([]int, len(t.axes))
	for a := range t.axes {
		coords[a] = (rank / t.gridStride[a]) % t.axes[a].Procs
	}
	return coords
}

// RankOf returns the rank at the given process-grid coordinates.
func (t *Template) RankOf(coords []int) int {
	if t.IsExplicit() {
		panic("dad: RankOf on explicit template")
	}
	r := 0
	for a, c := range coords {
		if c < 0 || c >= t.axes[a].Procs {
			panic(fmt.Sprintf("dad: coordinate %d outside axis %d grid of %d", c, a, t.axes[a].Procs))
		}
		r += c * t.gridStride[a]
	}
	return r
}

// OwnerOf returns the rank owning the global index idx.
func (t *Template) OwnerOf(idx []int) int {
	if t.IsExplicit() {
		for _, p := range t.explicit {
			if p.Contains(idx) {
				return p.Owner
			}
		}
		panic(fmt.Sprintf("dad: index %v outside template %v", idx, t.dims))
	}
	r := 0
	for a := range t.axes {
		c := t.axes[a].owner(t.dims[a], idx[a])
		r += c * t.gridStride[a]
	}
	return r
}

// Patches returns the global rectangles owned by rank, in the canonical
// order matching the rank's local buffer layout. For regular templates this
// is the row-major cartesian product of per-axis interval lists; for
// explicit templates it is the registration order of the rank's patches.
func (t *Template) Patches(rank int) []Patch {
	if t.IsExplicit() {
		out := make([]Patch, 0, len(t.rankPatches[rank]))
		for _, i := range t.rankPatches[rank] {
			out = append(out, t.explicit[i])
		}
		return out
	}
	coords := t.Coords(rank)
	ivs := make([][]Interval, len(t.axes))
	for a := range t.axes {
		ivs[a] = t.axes[a].Intervals(t.dims[a], coords[a])
		if len(ivs[a]) == 0 {
			return nil
		}
	}
	// Cartesian product in row-major order over the interval lists.
	var out []Patch
	sel := make([]int, len(ivs))
	for {
		lo := make([]int, len(ivs))
		hi := make([]int, len(ivs))
		for a := range ivs {
			lo[a] = ivs[a][sel[a]].Lo
			hi[a] = ivs[a][sel[a]].Hi
		}
		out = append(out, Patch{Lo: lo, Hi: hi, Owner: rank})
		a := len(ivs) - 1
		for a >= 0 {
			sel[a]++
			if sel[a] < len(ivs[a]) {
				break
			}
			sel[a] = 0
			a--
		}
		if a < 0 {
			return out
		}
	}
}

// LocalCount returns the number of elements rank owns.
func (t *Template) LocalCount(rank int) int {
	return t.rankCounts[rank]
}

// LocalShape returns the per-axis extent of rank's canonical local buffer
// (regular templates only).
func (t *Template) LocalShape(rank int) []int {
	if t.IsExplicit() {
		panic("dad: LocalShape on explicit template")
	}
	coords := t.Coords(rank)
	s := make([]int, len(t.axes))
	for a := range t.axes {
		s[a] = t.axes[a].localCount(t.dims[a], coords[a])
	}
	return s
}

// LocalOffset returns the offset of global index idx within the canonical
// local buffer of the rank that owns it (which must be rank).
//
// Canonical layout: for regular templates, a dense row-major array of the
// rank's per-axis owned index sets in increasing global order (the standard
// HPF local layout); for explicit templates, the concatenation of the
// rank's patches in registration order, each stored row-major.
func (t *Template) LocalOffset(rank int, idx []int) int {
	if t.IsExplicit() {
		for k, pi := range t.rankPatches[rank] {
			p := t.explicit[pi]
			if p.Contains(idx) {
				return t.rankOffsets[rank][k] + rowMajorOffset(idx, p.Lo, p.Shape())
			}
		}
		// A copy, so that idx does not escape: callers keep it on the stack.
		panic(fmt.Sprintf("dad: index %v not owned by rank %d", append([]int(nil), idx...), rank))
	}
	off := 0
	for a := range t.axes {
		c := (rank / t.gridStride[a]) % t.axes[a].Procs // Coords(rank)[a]
		var li int
		if pos := t.axisPos[a]; pos != nil {
			li = pos[idx[a]]
		} else {
			li = t.axes[a].localIndex(t.dims[a], idx[a], c)
		}
		off = off*t.axes[a].localCount(t.dims[a], c) + li
	}
	return off
}

// Regular reports whether the template's per-rank ownership has a closed
// form on every axis: it is not explicit and carries no Implicit axis.
// Regular templates admit arithmetic (patch-enumeration-free) schedule
// planning against a compatible peer; see ClosedFormPair.
func (t *Template) Regular() bool {
	if t.IsExplicit() {
		return false
	}
	for _, ax := range t.axes {
		if ax.Class() == ClassIrregular {
			return false
		}
	}
	return true
}

// ClosedFormPair reports whether a redistribution between t and other can
// be planned entirely in closed form: both templates are Regular, they
// conform, and on every axis where both sides are ClassStrided the dealt
// block sizes agree (so the two sides partition the axis into the same
// aligned blocks and the intersection of two coordinates' ownership is an
// arithmetic progression of whole blocks). Interval×interval and
// interval×strided axis pairs always have closed forms; strided pairs
// with differing block sizes fall back to interval enumeration.
func (t *Template) ClosedFormPair(other *Template) bool {
	if !t.Regular() || !other.Regular() || !t.Conforms(other) {
		return false
	}
	for a := range t.axes {
		sa, da := t.axes[a], other.axes[a]
		if sa.Class() == ClassStrided && da.Class() == ClassStrided && sa.StrideBlock() != da.StrideBlock() {
			return false
		}
	}
	return true
}

// Conforms reports whether two templates describe the same global index
// space (same dims), which is the precondition for redistribution between
// them.
func (t *Template) Conforms(other *Template) bool {
	if len(t.dims) != len(other.dims) {
		return false
	}
	for a := range t.dims {
		if t.dims[a] != other.dims[a] {
			return false
		}
	}
	return true
}

// Key returns a canonical string identifying the template's distribution,
// used to key schedule caches: two templates with equal keys produce
// identical schedules.
func (t *Template) Key() string { return t.key }

// makeKey formats Key; templates are immutable, so it runs once.
func (t *Template) makeKey() string {
	var b strings.Builder
	fmt.Fprintf(&b, "d%v/p%d", t.dims, t.nprocs)
	if t.IsExplicit() {
		b.WriteString("/X")
		// Canonical order: sort a copy by owner then Lo.
		ps := append([]Patch(nil), t.explicit...)
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].Owner != ps[j].Owner {
				return ps[i].Owner < ps[j].Owner
			}
			for a := range ps[i].Lo {
				if ps[i].Lo[a] != ps[j].Lo[a] {
					return ps[i].Lo[a] < ps[j].Lo[a]
				}
			}
			return false
		})
		for _, p := range ps {
			b.WriteString(p.String())
		}
		return b.String()
	}
	for a, ax := range t.axes {
		fmt.Fprintf(&b, "/a%d:%s:%d", a, ax.Kind, ax.Procs)
		switch ax.Kind {
		case BlockCyclic:
			fmt.Fprintf(&b, ":b%d", ax.BlockSize)
		case GenBlock:
			fmt.Fprintf(&b, ":s%v", ax.Sizes)
		case Implicit:
			fmt.Fprintf(&b, ":o%v", ax.Owner)
		}
	}
	return b.String()
}

// String summarizes the template.
func (t *Template) String() string {
	if t.IsExplicit() {
		return fmt.Sprintf("Template(dims=%v, explicit %d patches over %d ranks)", t.dims, len(t.explicit), t.nprocs)
	}
	kinds := make([]string, len(t.axes))
	for a, ax := range t.axes {
		kinds[a] = fmt.Sprintf("%s×%d", ax.Kind, ax.Procs)
	}
	return fmt.Sprintf("Template(dims=%v, axes=[%s])", t.dims, strings.Join(kinds, ", "))
}

// Package dad implements the CCA Distributed Array Descriptor (DAD): a
// uniform run-time description of how a dense multidimensional array is
// decomposed across the processes of a parallel component.
//
// The descriptor model follows Section 2.2.2 of the paper (itself patterned
// on the HPF distributed-array model): a Template describes the logical
// per-axis distribution of a global index space over a process grid, and
// any number of actual arrays may be aligned to a template. Supported
// per-axis distributions are Collapsed, Block, Cyclic, BlockCyclic,
// GenBlock (Global-Arrays-style irregular blocks) and Implicit (HPF-style
// per-index owner map). In addition a template may carry a global Explicit
// distribution: an arbitrary set of non-overlapping rectangular patches
// that together tile the template, each assigned to a rank.
//
// The package answers the questions M×N transfers need: which rank owns a
// global index, which global rectangles a rank owns, and where a global
// index lives inside a rank's canonical local buffer.
package dad

import "fmt"

// Kind identifies a per-axis distribution type.
type Kind int

// The per-axis distribution kinds of the CCA DAD (Section 2.2.2).
const (
	// Collapsed: all elements of the axis belong to a single process
	// coordinate.
	Collapsed Kind = iota
	// Block: contiguous blocks of ceil(n/p) elements, one per coordinate.
	Block
	// Cyclic: element i belongs to coordinate i mod p.
	Cyclic
	// BlockCyclic: blocks of a fixed size dealt cyclically across the
	// coordinates.
	BlockCyclic
	// GenBlock: one contiguous block per coordinate, with per-coordinate
	// sizes (the Global Arrays generalization).
	GenBlock
	// Implicit: a fully general per-index owner map, at the cost of one
	// index element per data element.
	Implicit
)

// String returns the distribution kind's conventional name.
func (k Kind) String() string {
	switch k {
	case Collapsed:
		return "collapsed"
	case Block:
		return "block"
	case Cyclic:
		return "cyclic"
	case BlockCyclic:
		return "block-cyclic"
	case GenBlock:
		return "generalized-block"
	case Implicit:
		return "implicit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// AxisDist describes the distribution of one template axis over Procs
// process-grid coordinates.
type AxisDist struct {
	Kind      Kind
	Procs     int   // process-grid extent along this axis (1 for Collapsed)
	BlockSize int   // BlockCyclic only
	Sizes     []int // GenBlock only: one block length per coordinate
	Owner     []int // Implicit only: owner coordinate per global index
}

// CollapsedAxis returns an axis wholly owned by a single coordinate.
func CollapsedAxis() AxisDist { return AxisDist{Kind: Collapsed, Procs: 1} }

// BlockAxis returns a block distribution over p coordinates.
func BlockAxis(p int) AxisDist { return AxisDist{Kind: Block, Procs: p} }

// CyclicAxis returns a cyclic distribution over p coordinates.
func CyclicAxis(p int) AxisDist { return AxisDist{Kind: Cyclic, Procs: p} }

// BlockCyclicAxis returns a block-cyclic distribution with the given block
// size over p coordinates.
func BlockCyclicAxis(p, blockSize int) AxisDist {
	return AxisDist{Kind: BlockCyclic, Procs: p, BlockSize: blockSize}
}

// GenBlockAxis returns a generalized-block distribution; sizes[i] is the
// length of coordinate i's block, and the sizes must sum to the axis length.
func GenBlockAxis(sizes []int) AxisDist {
	return AxisDist{Kind: GenBlock, Procs: len(sizes), Sizes: append([]int(nil), sizes...)}
}

// ImplicitAxis returns a fully general distribution: owner[i] is the
// process-grid coordinate owning global index i along this axis.
func ImplicitAxis(p int, owner []int) AxisDist {
	return AxisDist{Kind: Implicit, Procs: p, Owner: append([]int(nil), owner...)}
}

// clone returns a with its own copies of Sizes and Owner, so a template
// never shares those slices with its caller.
func (a AxisDist) clone() AxisDist {
	if a.Sizes != nil {
		a.Sizes = append([]int(nil), a.Sizes...)
	}
	if a.Owner != nil {
		a.Owner = append([]int(nil), a.Owner...)
	}
	return a
}

// AxisClass is the structural shape of a per-axis distribution, used by
// the schedule planner to decide whether rank-pair intersections can be
// computed in closed form instead of by patch enumeration.
type AxisClass int

const (
	// ClassInterval: every coordinate owns a single contiguous interval
	// of global indices, computable in O(1) (with a per-axis prefix-sum
	// precomputation for GenBlock). Collapsed, Block and GenBlock.
	ClassInterval AxisClass = iota
	// ClassStrided: every coordinate owns equal fixed-size blocks dealt
	// round-robin: coordinate c owns blocks {m : m ≡ c (mod Procs)} of
	// size StrideBlock(), the last block clipped to the axis length.
	// Cyclic (block size 1) and BlockCyclic.
	ClassStrided
	// ClassIrregular: ownership is a per-index table with no closed
	// form (Implicit). The planner falls back to enumeration.
	ClassIrregular
)

// String returns the class's conventional name.
func (c AxisClass) String() string {
	switch c {
	case ClassInterval:
		return "interval"
	case ClassStrided:
		return "strided"
	case ClassIrregular:
		return "irregular"
	}
	return fmt.Sprintf("AxisClass(%d)", int(c))
}

// Class reports the structural shape of the distribution.
func (a AxisDist) Class() AxisClass {
	switch a.Kind {
	case Collapsed, Block, GenBlock:
		return ClassInterval
	case Cyclic, BlockCyclic:
		return ClassStrided
	default:
		return ClassIrregular
	}
}

// StrideBlock returns the dealt block size of a ClassStrided axis (1 for
// Cyclic, BlockSize for BlockCyclic) and 0 for every other class.
func (a AxisDist) StrideBlock() int {
	switch a.Kind {
	case Cyclic:
		return 1
	case BlockCyclic:
		return a.BlockSize
	}
	return 0
}

// validate checks the axis against the axis length n.
func (a AxisDist) validate(n int) error {
	if a.Procs < 1 {
		return fmt.Errorf("dad: axis has %d process coordinates", a.Procs)
	}
	switch a.Kind {
	case Collapsed:
		if a.Procs != 1 {
			return fmt.Errorf("dad: collapsed axis must have 1 coordinate, has %d", a.Procs)
		}
	case Block, Cyclic:
		// No extra parameters.
	case BlockCyclic:
		if a.BlockSize < 1 {
			return fmt.Errorf("dad: block-cyclic axis needs a positive block size, got %d", a.BlockSize)
		}
	case GenBlock:
		if len(a.Sizes) != a.Procs {
			return fmt.Errorf("dad: generalized-block axis has %d sizes for %d coordinates", len(a.Sizes), a.Procs)
		}
		sum := 0
		for i, s := range a.Sizes {
			if s < 0 {
				return fmt.Errorf("dad: generalized-block size[%d] = %d is negative", i, s)
			}
			sum += s
		}
		if sum != n {
			return fmt.Errorf("dad: generalized-block sizes sum to %d, axis length is %d", sum, n)
		}
	case Implicit:
		if len(a.Owner) != n {
			return fmt.Errorf("dad: implicit axis has %d owners for length %d", len(a.Owner), n)
		}
		for i, o := range a.Owner {
			if o < 0 || o >= a.Procs {
				return fmt.Errorf("dad: implicit owner[%d] = %d outside [0,%d)", i, o, a.Procs)
			}
		}
	default:
		return fmt.Errorf("dad: unknown axis kind %d", int(a.Kind))
	}
	return nil
}

// blockLen returns the HPF block length ceil(n/p).
func blockLen(n, p int) int { return (n + p - 1) / p }

// owner returns the coordinate owning global index g on an axis of length n.
func (a AxisDist) owner(n, g int) int {
	switch a.Kind {
	case Collapsed:
		return 0
	case Block:
		b := blockLen(n, a.Procs)
		return g / b
	case Cyclic:
		return g % a.Procs
	case BlockCyclic:
		return (g / a.BlockSize) % a.Procs
	case GenBlock:
		acc := 0
		for c, s := range a.Sizes {
			acc += s
			if g < acc {
				return c
			}
		}
		return a.Procs - 1
	case Implicit:
		return a.Owner[g]
	}
	panic("dad: owner on invalid axis")
}

// Interval is a half-open range [Lo, Hi) of global indices along one axis.
type Interval struct {
	Lo, Hi int
}

// Len returns the number of indices in the interval.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// Intersect returns the overlap of two intervals and whether it is
// non-empty.
func (iv Interval) Intersect(other Interval) (Interval, bool) {
	lo, hi := iv.Lo, iv.Hi
	if other.Lo > lo {
		lo = other.Lo
	}
	if other.Hi < hi {
		hi = other.Hi
	}
	if lo >= hi {
		return Interval{}, false
	}
	return Interval{lo, hi}, true
}

// Intervals returns the global indices owned by coordinate c along an axis
// of length n, as sorted disjoint half-open intervals.
func (a AxisDist) Intervals(n, c int) []Interval {
	switch a.Kind {
	case Collapsed:
		if n == 0 {
			return nil
		}
		return []Interval{{0, n}}
	case Block:
		b := blockLen(n, a.Procs)
		lo := c * b
		hi := lo + b
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return nil
		}
		return []Interval{{lo, hi}}
	case Cyclic:
		var out []Interval
		for g := c; g < n; g += a.Procs {
			out = append(out, Interval{g, g + 1})
		}
		return out
	case BlockCyclic:
		var out []Interval
		b := a.BlockSize
		for lo := c * b; lo < n; lo += a.Procs * b {
			hi := lo + b
			if hi > n {
				hi = n
			}
			out = append(out, Interval{lo, hi})
		}
		return out
	case GenBlock:
		lo := 0
		for i := 0; i < c; i++ {
			lo += a.Sizes[i]
		}
		hi := lo + a.Sizes[c]
		if lo >= hi {
			return nil
		}
		return []Interval{{lo, hi}}
	case Implicit:
		var out []Interval
		start := -1
		for g := 0; g <= n; g++ {
			owned := g < n && a.Owner[g] == c
			if owned && start < 0 {
				start = g
			}
			if !owned && start >= 0 {
				out = append(out, Interval{start, g})
				start = -1
			}
		}
		return out
	}
	panic("dad: intervals on invalid axis")
}

// localCount returns how many indices coordinate c owns along an axis of
// length n.
func (a AxisDist) localCount(n, c int) int {
	switch a.Kind {
	case Collapsed:
		return n
	case Block:
		b := blockLen(n, a.Procs)
		lo := c * b
		hi := lo + b
		if hi > n {
			hi = n
		}
		if lo >= hi {
			return 0
		}
		return hi - lo
	case Cyclic:
		if c >= n {
			return 0
		}
		return (n - c + a.Procs - 1) / a.Procs
	case BlockCyclic:
		count := 0
		b := a.BlockSize
		for lo := c * b; lo < n; lo += a.Procs * b {
			hi := lo + b
			if hi > n {
				hi = n
			}
			count += hi - lo
		}
		return count
	case GenBlock:
		return a.Sizes[c]
	case Implicit:
		count := 0
		for _, o := range a.Owner {
			if o == c {
				count++
			}
		}
		return count
	}
	panic("dad: localCount on invalid axis")
}

// localIndex returns the position of global index g within coordinate c's
// sorted owned set. The caller must ensure owner(n, g) == c.
func (a AxisDist) localIndex(n, g, c int) int {
	switch a.Kind {
	case Collapsed:
		return g
	case Block:
		b := blockLen(n, a.Procs)
		return g - c*b
	case Cyclic:
		return g / a.Procs
	case BlockCyclic:
		b := a.BlockSize
		blk := g / b
		localBlk := blk / a.Procs
		return localBlk*b + g%b
	case GenBlock:
		lo := 0
		for i := 0; i < c; i++ {
			lo += a.Sizes[i]
		}
		return g - lo
	case Implicit:
		// Rank-order position among owned indices; templates precompute a
		// lookup table for this path (see Template.localPos).
		pos := 0
		for i := 0; i < g; i++ {
			if a.Owner[i] == c {
				pos++
			}
		}
		return pos
	}
	panic("dad: localIndex on invalid axis")
}

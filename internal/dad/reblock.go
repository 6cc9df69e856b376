package dad

import "fmt"

// Reblocking: re-deriving a template's distribution over a different
// cohort width, the descriptor half of online resize (core.ProposeResize →
// dad.Reblock → schedule.Remap → a redist.Transfer with Resize set).
//
// A reblocked template keeps the global index space and the distribution
// *family* of every axis but re-deals ownership over the new process
// count: Block stays Block (new ceil(n/p) blocks), Cyclic stays Cyclic,
// BlockCyclic keeps its block size and re-deals the blocks, and GenBlock —
// whose per-coordinate sizes carry no meaning at a different width — is
// re-derived as balanced HPF blocks over the new coordinates. Collapsed
// axes are untouched (they never span the grid), and Implicit axes and
// Explicit templates have no closed-form re-derivation, so reblocking them
// fails with a typed *ReblockError rather than guessing an owner map.

// ReblockError reports that a template (or one of its axes) cannot be
// re-derived over a new cohort width.
type ReblockError struct {
	Axis   int // -1 when the whole template is the problem
	Reason string
}

func (e *ReblockError) Error() string {
	if e.Axis < 0 {
		return fmt.Sprintf("dad: cannot reblock template: %s", e.Reason)
	}
	return fmt.Sprintf("dad: cannot reblock axis %d: %s", e.Axis, e.Reason)
}

// reblockAxis re-derives one axis distribution over p coordinates; n is
// the axis length (needed to rebalance GenBlock sizes).
func reblockAxis(a int, ax AxisDist, n, p int) (AxisDist, error) {
	if p < 1 {
		return AxisDist{}, &ReblockError{Axis: a, Reason: fmt.Sprintf("target grid extent %d", p)}
	}
	switch ax.Kind {
	case Collapsed:
		if p != 1 {
			return AxisDist{}, &ReblockError{Axis: a, Reason: fmt.Sprintf("collapsed axis cannot spread over %d coordinates", p)}
		}
		return ax, nil
	case Block:
		return BlockAxis(p), nil
	case Cyclic:
		return CyclicAxis(p), nil
	case BlockCyclic:
		return BlockCyclicAxis(p, ax.BlockSize), nil
	case GenBlock:
		// Per-coordinate sizes are meaningless at another width; re-derive
		// balanced HPF-style blocks (ceil(n/p), tail clipped, trailing
		// coordinates possibly empty).
		sizes := make([]int, p)
		block := BlockAxis(p)
		for c := 0; c < p; c++ {
			sizes[c] = block.localCount(n, c)
		}
		return GenBlockAxis(sizes), nil
	case Implicit:
		return AxisDist{}, &ReblockError{Axis: a, Reason: "implicit owner map has no re-derivation"}
	}
	return AxisDist{}, &ReblockError{Axis: a, Reason: fmt.Sprintf("unknown kind %d", int(ax.Kind))}
}

// Reblock re-derives a regular template over a cohort of newWidth ranks.
// Exactly one axis must span the process grid (Procs > 1) — the common
// 1-D-decomposed case — and that axis is re-dealt over newWidth
// coordinates; the others keep their extent-1 distributions. Templates
// with several distributed axes are ambiguous here: use ReblockGrid and
// choose the new grid shape explicitly. Explicit and Implicit
// distributions fail with a typed *ReblockError.
//
// A template whose every axis has extent 1 (a single-rank template) picks
// the first axis of a resizable kind (Block/Cyclic/BlockCyclic/GenBlock)
// to spread over newWidth, so a cohort of one can still grow.
func Reblock(t *Template, newWidth int) (*Template, error) {
	if newWidth < 1 {
		return nil, &ReblockError{Axis: -1, Reason: fmt.Sprintf("target width %d", newWidth)}
	}
	if t.IsExplicit() {
		return nil, &ReblockError{Axis: -1, Reason: "explicit patch tiling has no re-derivation"}
	}
	target := -1
	for a, ax := range t.axes {
		if ax.Procs > 1 {
			if target >= 0 {
				return nil, &ReblockError{Axis: -1, Reason: "multiple distributed axes; use ReblockGrid"}
			}
			target = a
		}
	}
	if target < 0 {
		// Single-rank template: spread the first resizable axis.
		for a, ax := range t.axes {
			switch ax.Kind {
			case Block, Cyclic, BlockCyclic, GenBlock:
				target = a
			}
			if target >= 0 {
				break
			}
		}
		if target < 0 {
			if newWidth == t.nprocs {
				return t, nil
			}
			return nil, &ReblockError{Axis: -1, Reason: "no resizable axis"}
		}
	}
	grid := make([]int, len(t.axes))
	for a, ax := range t.axes {
		grid[a] = ax.Procs
	}
	grid[target] = newWidth
	return ReblockGrid(t, grid)
}

// ReblockGrid re-derives a regular template over an explicit new process
// grid, one extent per axis; the new cohort width is the product of the
// extents. Axes whose extent is unchanged keep their distribution
// verbatim (including GenBlock sizes); resized axes are re-derived per
// the Reblock rules. Fails with a typed *ReblockError for explicit
// templates, Implicit axes being resized, or Collapsed axes asked to
// spread.
func ReblockGrid(t *Template, newGrid []int) (*Template, error) {
	if t.IsExplicit() {
		return nil, &ReblockError{Axis: -1, Reason: "explicit patch tiling has no re-derivation"}
	}
	if len(newGrid) != len(t.axes) {
		return nil, &ReblockError{Axis: -1, Reason: fmt.Sprintf("%d grid extents for %d axes", len(newGrid), len(t.axes))}
	}
	axes := make([]AxisDist, len(t.axes))
	for a, ax := range t.axes {
		if newGrid[a] == ax.Procs {
			axes[a] = ax
			continue
		}
		nax, err := reblockAxis(a, ax, t.dims[a], newGrid[a])
		if err != nil {
			return nil, err
		}
		axes[a] = nax
	}
	return NewTemplate(t.dims, axes)
}

package schedule

import (
	"fmt"

	"mxn/internal/dad"
	"mxn/internal/obs"
)

// Remap/Expand: the planned-reconfiguration counterparts of Restrict.
//
// Restrict (PR 3) shrinks a schedule after an *unplanned* membership
// change — a rank died, drop its pairs. A planned resize needs the other
// two directions: Remap plans the full old-layout→new-layout migration
// transfer (the data movement of a cohort growing or shrinking), and
// Expand renumbers an existing schedule's rank spaces into wider
// templates (a sub-cohort's plan re-expressed inside the resized cohort),
// which together with Restrict gives round-trippable narrowing/widening.

var (
	mRemaps      = obs.Default().Counter("schedule.remaps")
	mRemapElems  = obs.Default().Counter("schedule.remap_elems")
	mExpands     = obs.Default().Counter("schedule.expands")
	mTplInvalids = obs.Default().Counter("schedule.cache_template_invalidations")
)

// Remap plans the migration transfer of an online resize: every element
// moves from its owner under the old template to its owner under the new
// (typically dad.Reblock(old, newWidth)) template. It is Build plus the
// resize-specific contract checks — the templates must conform, and
// the plan must move every element exactly once (schedules between
// complete distributions always do; the check catches a caller pairing
// descriptors of different arrays).
//
// Closed-form planning applies automatically: a Block→Block width change
// is interval×interval and plans arithmetically (the fast path), so
// resize planning costs microseconds, not an enumeration.
func Remap(old, next *dad.Template) (*Schedule, error) {
	if !old.Conforms(next) {
		return nil, fmt.Errorf("schedule: Remap templates do not conform: %v vs %v", old.Dims(), next.Dims())
	}
	s, err := Build(old, next)
	if err != nil {
		return nil, err
	}
	if got, want := s.TotalElems(), old.Size(); got != want {
		return nil, fmt.Errorf("schedule: Remap plan moves %d of %d elements", got, want)
	}
	mRemaps.Inc()
	mRemapElems.Add(uint64(s.TotalElems()))
	return s, nil
}

// Expand renumbers a schedule's rank spaces into wider templates: pair
// (s, d) becomes (srcMap[s], dstMap[d]) planned against newSrc/newDst. A
// nil map is the identity. It is the inverse direction of Restrict — a
// plan built for a narrow cohort re-expressed inside a wider one — and
// shares the PairPlan run backing with s (runs are never mutated, only
// relabeled), so expanding is O(pairs), not a re-plan.
//
// The caller guarantees the layout contract: each mapped rank owns, in
// the wide template, exactly the index set (and local layout) its old
// rank owned in the narrow one. Expand verifies the cheap projection of
// that contract — map bounds and per-rank local element counts — and
// fails typed on violation, since a silently mis-expanded schedule would
// scatter data through wrong offsets.
func Expand(s *Schedule, newSrc, newDst *dad.Template, srcMap, dstMap []int) (*Schedule, error) {
	if !newSrc.Conforms(newDst) || !newSrc.Conforms(s.Src) {
		return nil, fmt.Errorf("schedule: Expand templates do not conform")
	}
	rankOf := func(m []int, r int, n int, side string) (int, error) {
		nr := r
		if m != nil {
			if r >= len(m) {
				return 0, fmt.Errorf("schedule: Expand %s rank %d outside map of %d", side, r, len(m))
			}
			nr = m[r]
		}
		if nr < 0 || nr >= n {
			return 0, fmt.Errorf("schedule: Expand %s rank %d maps to %d outside [0,%d)", side, r, nr, n)
		}
		return nr, nil
	}
	out := &Schedule{Src: newSrc, Dst: newDst}
	out.Pairs = make([]PairPlan, 0, len(s.Pairs))
	for _, p := range s.Pairs {
		ns, err := rankOf(srcMap, p.SrcRank, newSrc.NumProcs(), "source")
		if err != nil {
			return nil, err
		}
		nd, err := rankOf(dstMap, p.DstRank, newDst.NumProcs(), "destination")
		if err != nil {
			return nil, err
		}
		if got, want := newSrc.LocalCount(ns), s.Src.LocalCount(p.SrcRank); got != want {
			return nil, fmt.Errorf("schedule: Expand source rank %d→%d local count %d != %d", p.SrcRank, ns, got, want)
		}
		if got, want := newDst.LocalCount(nd), s.Dst.LocalCount(p.DstRank); got != want {
			return nil, fmt.Errorf("schedule: Expand destination rank %d→%d local count %d != %d", p.DstRank, nd, got, want)
		}
		out.Pairs = append(out.Pairs, PairPlan{SrcRank: ns, DstRank: nd, Runs: p.Runs, Elems: p.Elems})
	}
	out.index()
	mExpands.Inc()
	return out, nil
}

// InvalidateTemplate drops every cached schedule whose source or
// destination is t, returning how many entries were dropped. This is the
// scoped invalidation a resize wants: the resized cohort's template
// appears on one side of every plan that must be rebuilt, while cached
// plans between unrelated couplings — whose keys reference neither side —
// keep their 0-alloc steady state.
func (c *Cache) InvalidateTemplate(t *dad.Template) int {
	tKey := t.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key := range c.m {
		if key.src == tKey || key.dst == tKey {
			delete(c.m, key)
			n++
		}
	}
	mInvalidations.Add(uint64(n))
	mTplInvalids.Add(uint64(n))
	return n
}

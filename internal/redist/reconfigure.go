// Online reconfiguration: the migration executor of a planned cohort
// resize (the malleability tentpole — see DESIGN.md "Malleability").
//
// The full resize sequence is driven by the caller:
//
//	rz, _ := membership.ProposeResize(newWidth)       // prepare fence
//	newT, _ := dad.Reblock(oldT, newWidth)            // re-derive layout
//	s, _ := cache.Get(oldT, newT)                     // or schedule.Remap
//	opts.Resize = rz                                  // opts.Membership set
//	t, err := redist.New[T](c, s, lay, tag, opts)     // checked here
//	out, err := t.Run(src, dst)                       // migrate
//	redist.CommitReconfigure(rz, cache, oldT)         // commit + scoped invalidation
//	// or redist.AbortReconfigure(rz, cache, newT) on failure
//
// A migration is a fenced transfer with three resize-specific twists:
// the plan is the old→new migration (schedule.Remap, closed-form when the
// layouts allow), the fence entry epoch is pinned to the resize's prepare
// epoch rather than sampled (so every rank enters the migration at the
// same cut even if a death bumps the live epoch first), and New validates
// the widths against the Resize handle so a mismatched template pair
// fails before any data moves.
//
// The transfer is fenced at rz.PrepareEpoch(): concurrent fenced
// transfers or PRMI calls entered at earlier epochs drain against their
// own entry epoch, and traffic straddling the prepare fence surfaces as
// the existing typed stale-epoch errors — never as silently mixed-epoch
// data. A rank dying mid-migration follows opts.Policy: FailStrict
// aborts with *core.ErrRankDown (the caller should then AbortReconfigure
// and re-propose), FailRedistribute completes on the survivors with the
// losses recorded in the Outcome's validity bitmap, after which the
// caller can still commit. Either way rz.Disturbed() reports that the
// window was not clean.
package redist

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

var (
	mReconfigures      = obs.Default().Counter("redist.reconfigures")
	mReconfigureElems  = obs.Default().Counter("redist.reconfigure_elems")
	mReconfigureNS     = obs.Default().Histogram("redist.reconfigure_ns")
	mReconfigCommits   = obs.Default().Counter("redist.reconfigure_commits")
	mReconfigAborts    = obs.Default().Counter("redist.reconfigure_aborts")
	mReconfigInvalids  = obs.Default().Counter("redist.reconfigure_cache_invalidations")
	mReconfigDisturbed = obs.Default().Counter("redist.reconfigure_disturbed")
)

// ReconfigureError reports a malformed migration handle — template
// widths that do not match the resize, a communicator group too small to
// host both cohorts, or no membership to fence on.
type ReconfigureError struct {
	Reason string
}

func (e *ReconfigureError) Error() string {
	return "redist: reconfigure: " + e.Reason
}

// checkResize validates a migration handle against its resize before
// any data moves: the plan's cohort widths must be the resize's old and
// new widths, the group must host both cohorts, and the fence needs a
// membership to pin the prepare epoch on.
func checkResize(c *comm.Comm, lay Layout, o TransferOpts, nSrc, nDst int) error {
	rz := o.Resize
	var reason string
	switch {
	case o.Membership == nil:
		reason = "Resize set without a Membership to fence the migration"
	case nSrc != rz.OldWidth():
		reason = fmt.Sprintf("old template spans %d ranks, resize is from width %d", nSrc, rz.OldWidth())
	case nDst != rz.NewWidth():
		reason = fmt.Sprintf("new template spans %d ranks, resize is to width %d", nDst, rz.NewWidth())
	case c.Size() < lay.SrcBase+nSrc:
		reason = fmt.Sprintf("group of %d ranks cannot host old cohort ending at %d", c.Size(), lay.SrcBase+nSrc)
	case c.Size() < lay.DstBase+nDst:
		reason = fmt.Sprintf("group of %d ranks cannot host new cohort ending at %d", c.Size(), lay.DstBase+nDst)
	default:
		return nil
	}
	return &ReconfigureError{Reason: reason}
}

// ReconfigureFencedT builds a migration handle for rz on the plan from
// opts.Cache (or schedule.Remap) and runs it once.
//
// Deprecated: build the handle with New and TransferOpts.Resize, and Run
// it. Kept only because bench/, which may not be edited in the same
// change, calls it.
func ReconfigureFencedT[T Elem](c *comm.Comm, rz *core.Resize, oldT, newT *dad.Template, lay Layout,
	srcLocal, dstLocal []T, baseTag int, opts FenceOpts) (*Outcome, error) {
	opts.Resize = rz
	s, err := migrationPlan(c, lay, opts, oldT, newT)
	if err != nil {
		return nil, err
	}
	return runOnce(c, s, lay, srcLocal, dstLocal, baseTag, opts)
}

// migrationPlan is the old→new plan of opts.Resize: from opts.Cache when
// set — several arrays aligned to the same template pair migrate on one
// plan, built once — and from schedule.Remap otherwise. The handle and
// the widths are checked first, so a malformed migration builds no plan
// and leaves no cache entry behind.
func migrationPlan(c *comm.Comm, lay Layout, opts TransferOpts, oldT, newT *dad.Template) (*schedule.Schedule, error) {
	if opts.Resize == nil {
		return nil, &ReconfigureError{Reason: "nil Resize handle (call Membership.ProposeResize first)"}
	}
	if err := checkResize(c, lay, opts, oldT.NumProcs(), newT.NumProcs()); err != nil {
		return nil, err
	}
	if opts.Cache != nil {
		return opts.Cache.Get(oldT, newT)
	}
	return schedule.Remap(oldT, newT)
}

// CommitReconfigure commits the resize and scopes schedule-cache
// invalidation to the retired templates: every cached plan whose source
// or destination is one of oldTemplates is dropped (those plans name the
// old geometry), while plans between unrelated couplings keep their
// 0-alloc cached steady state. Returns how many cache entries were
// dropped. The cache may be nil.
func CommitReconfigure(rz *core.Resize, cache *schedule.Cache, oldTemplates ...*dad.Template) (int, error) {
	if err := rz.Commit(); err != nil {
		return 0, err
	}
	mReconfigCommits.Inc()
	return dropTemplates(cache, oldTemplates), nil
}

// AbortReconfigure rolls the resize back and drops cached plans that
// reference the abandoned new-cohort templates (they describe a geometry
// that never materialized). Returns how many cache entries were dropped.
// The cache may be nil.
func AbortReconfigure(rz *core.Resize, cache *schedule.Cache, newTemplates ...*dad.Template) (int, error) {
	if err := rz.Abort(); err != nil {
		return 0, err
	}
	mReconfigAborts.Inc()
	return dropTemplates(cache, newTemplates), nil
}

func dropTemplates(cache *schedule.Cache, ts []*dad.Template) int {
	if cache == nil {
		return 0
	}
	n := 0
	for _, t := range ts {
		n += cache.InvalidateTemplate(t)
	}
	mReconfigInvalids.Add(uint64(n))
	return n
}

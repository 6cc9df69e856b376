package core

import (
	"fmt"

	"mxn/internal/obs"
)

// Elastic malleability: planned, online change of a cohort's width.
//
// PR 3's Membership handles the *unplanned* half of membership change —
// a rank dies, the epoch bumps, fenced transfers re-plan over survivors.
// This file adds the *planned* half: a two-phase resize protocol that
// grows or shrinks the cohort while the rest of the system keeps running.
//
// The protocol is two epoch bumps around a migration window:
//
//	prepare  ProposeResize(newWidth) bumps the epoch once and pins that
//	         "prepare epoch". New fenced transfers and PRMI calls entered
//	         at older epochs drain normally (both endpoints still agree on
//	         their entry epoch) or fail fast with the existing typed
//	         stale-epoch errors if they straddle the bump — exactly the
//	         PR 3/PR 7 fencing semantics, reused unchanged.
//	migrate  a redist.Transfer with Resize set runs the old-layout→new-layout
//	         transfer with the prepare epoch as its entry epoch, so every
//	         participating rank enters the migration at the same fence.
//	commit   Commit() bumps the epoch again and atomically switches the
//	         cohort width to newWidth. Or, if anything went wrong (a rank
//	         died mid-migration, the caller gave up), Abort() bumps the
//	         epoch and keeps the old width — the rollback path.
//
// A rank dying during the window bumps the epoch between prepare and
// commit; Disturbed() detects that so the coordinator can abort or
// re-plan (FailRedistribute) instead of committing a migration that some
// ranks completed against a different alive set.
//
// Only one resize may be in flight per Membership; a concurrent proposal
// fails with a typed *ResizeInProgressError.

var (
	mResizesProposed  = obs.Default().Counter("core.resizes_proposed")
	mResizesCommitted = obs.Default().Counter("core.resizes_committed")
	mResizesAborted   = obs.Default().Counter("core.resizes_aborted")
)

// ResizeInProgressError reports that ProposeResize was called while
// another resize on the same Membership had been prepared but neither
// committed nor aborted.
type ResizeInProgressError struct {
	OldWidth, NewWidth int // widths of the in-flight resize
	PrepareEpoch       uint64
}

func (e *ResizeInProgressError) Error() string {
	return fmt.Sprintf("core: resize %d→%d already in progress (prepare epoch %d)",
		e.OldWidth, e.NewWidth, e.PrepareEpoch)
}

// ResizeStateError reports a Resize handle used after it was already
// committed or aborted.
type ResizeStateError struct {
	Op    string // "Commit" or "Abort"
	State string // "committed" or "aborted"
}

func (e *ResizeStateError) Error() string {
	return fmt.Sprintf("core: Resize.%s on already-%s resize", e.Op, e.State)
}

// Resize is the coordinator handle for one prepared cohort resize. It is
// created by Membership.ProposeResize and retired by exactly one of
// Commit or Abort. Methods are safe for concurrent use (they lock the
// owning Membership), but the commit/abort decision itself is the
// coordinator's — typically rank 0 drives the migration and every other
// rank observes the outcome through the epoch and Width().
type Resize struct {
	m         *Membership
	oldWidth  int
	newWidth  int
	prepEpoch uint64
	state     int // under m.mu: 0 = prepared, 1 = committed, 2 = aborted
}

// OldWidth returns the cohort width before the resize.
func (rz *Resize) OldWidth() int { return rz.oldWidth }

// NewWidth returns the cohort width the resize is moving to.
func (rz *Resize) NewWidth() int { return rz.newWidth }

// PrepareEpoch returns the membership epoch established by the prepare
// phase. The migration transfer must use it as its fence entry epoch so
// all ranks enter at the same cut, even if a failure bumps the live
// epoch mid-migration.
func (rz *Resize) PrepareEpoch() uint64 { return rz.prepEpoch }

// Disturbed reports whether the membership epoch has moved past the
// prepare epoch — i.e. a rank died (or some other membership event fired)
// inside the resize window. A disturbed resize must not be committed
// blindly: either Abort and retry, or re-plan over survivors first.
func (rz *Resize) Disturbed() bool {
	rz.m.mu.Lock()
	defer rz.m.mu.Unlock()
	return rz.m.epoch != rz.prepEpoch
}

// Commit finishes the resize: the cohort width becomes NewWidth() and the
// epoch bumps so every fenced path keyed to an earlier epoch sees the
// change. Returns a typed *ResizeStateError if the handle was already
// retired.
func (rz *Resize) Commit() error {
	rz.m.mu.Lock()
	defer rz.m.mu.Unlock()
	if err := rz.retire("Commit"); err != nil {
		return err
	}
	rz.state = 1
	rz.m.width = rz.newWidth
	rz.m.epoch++
	mResizesCommitted.Inc()
	return nil
}

// Abort rolls the resize back: the width stays OldWidth() and the epoch
// bumps so any rank that already observed the prepare fence re-converges.
// The rank universe is not shrunk — ranks admitted at prepare remain in
// the liveness map (alive but outside the cohort width), so an aborted
// grow can simply be re-proposed. Returns a typed *ResizeStateError if
// the handle was already retired.
func (rz *Resize) Abort() error {
	rz.m.mu.Lock()
	defer rz.m.mu.Unlock()
	if err := rz.retire("Abort"); err != nil {
		return err
	}
	rz.state = 2
	rz.m.epoch++
	mResizesAborted.Inc()
	return nil
}

// retire transitions the handle out of the prepared state; caller holds
// m.mu.
func (rz *Resize) retire(op string) error {
	switch rz.state {
	case 1:
		return &ResizeStateError{Op: op, State: "committed"}
	case 2:
		return &ResizeStateError{Op: op, State: "aborted"}
	}
	if rz.m.resize == rz {
		rz.m.resize = nil
	}
	return nil
}

// ProposeResize prepares an online change of the cohort width to
// newWidth, returning the coordinator handle for the commit/abort
// decision. Preparing:
//
//   - validates newWidth > 0 and that the ranks [0, newWidth) of the
//     universe are all alive (a shrink to a width that would include a
//     dead rank, or a grow re-admitting one, is rejected — mark-down is
//     permanent);
//   - grows the rank universe to newWidth if needed, with the new ranks
//     alive, so joiners pass IsAlive during the migration;
//   - bumps the epoch once (the prepare fence) and pins it in the handle.
//
// Width() still reports the old width until Commit; transfers keyed to
// pre-prepare epochs keep draining under the old geometry. Only one
// resize may be prepared at a time; concurrent proposals fail with a
// typed *ResizeInProgressError. Proposing the current width is allowed
// (it still fences and must be committed or aborted), which gives
// callers a uniform "quiesce" primitive.
func (m *Membership) ProposeResize(newWidth int) (*Resize, error) {
	if newWidth <= 0 {
		return nil, fmt.Errorf("core: ProposeResize width %d, must be positive", newWidth)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.resize != nil {
		return nil, &ResizeInProgressError{
			OldWidth:     m.resize.oldWidth,
			NewWidth:     m.resize.newWidth,
			PrepareEpoch: m.resize.prepEpoch,
		}
	}
	// Every rank of the target cohort must be alive at prepare. Ranks
	// beyond the current universe are about to be admitted alive, so only
	// existing indices can fail this.
	limit := newWidth
	if limit > m.n {
		limit = m.n
	}
	for r := 0; r < limit; r++ {
		if m.down[r] {
			return nil, &ErrRankDown{Rank: r, Epoch: m.epoch}
		}
	}
	if newWidth > m.n {
		grown := make([]bool, newWidth)
		copy(grown, m.down)
		m.down = grown
		m.n = newWidth
	}
	m.epoch++
	rz := &Resize{m: m, oldWidth: m.width, newWidth: newWidth, prepEpoch: m.epoch}
	m.resize = rz
	mResizesProposed.Inc()
	return rz, nil
}

// Resizing returns the in-flight Resize handle, or nil when none is
// prepared. Non-coordinator ranks use it to discover a resize proposed
// on the shared Membership.
func (m *Membership) Resizing() *Resize {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resize
}

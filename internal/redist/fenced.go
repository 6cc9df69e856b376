// Epoch fencing: the failure-aware vocabulary of a Transfer.
//
// An unfenced transfer assumes both cohorts stay alive: a crashed source
// rank leaves its destinations blocked in Recv forever. Setting
// TransferOpts.Membership runs the same loop against a core.Membership
// view: messages are stamped with the membership epoch in force when Run
// began, receivers reject stale-epoch leftovers of pre-failure attempts,
// and a rank death observed mid-transfer either aborts the transfer with
// a typed *core.ErrRankDown (FailStrict) or re-plans it against the
// surviving ranks (FailRedistribute), completing on the live pairs and
// recording the lost elements in a dad.Validity bitmap.
package redist

import (
	"fmt"

	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

var (
	mReplans          = obs.Default().Counter("redist.replans")
	mReplanNS         = obs.Default().Histogram("redist.replan_ns")
	mStaleEpoch       = obs.Default().Counter("redist.stale_epoch_rejected")
	mStaleLocal       = obs.Default().Counter("redist.stale_local_epoch")
	mRankdownAborts   = obs.Default().Counter("redist.rankdown_aborts")
	mSendsSkippedDead = obs.Default().Counter("redist.sends_skipped_dead")
	mElemsInvalidated = obs.Default().Counter("redist.elems_invalidated")
)

// StaleLocalEpochError reports the inverse of a stale-epoch discard:
// a peer's message carried a NEWER membership epoch than this rank
// entered the transfer at, meaning this rank's plan is the stale one.
// Consuming such a message would corrupt data silently whenever element
// counts happen to match, so the transfer aborts (after draining) and
// the caller should re-enter it at the current epoch — as should the
// peer cohort, which will see this rank's own traffic as stale.
type StaleLocalEpochError struct {
	Rank   int    // local cohort rank that found itself stale
	Peer   int    // peer cohort rank whose message carried the newer epoch
	Local  uint64 // this rank's entry epoch
	Remote uint64 // the epoch stamped on the peer's message
}

func (e *StaleLocalEpochError) Error() string {
	return fmt.Sprintf("redist: rank %d entered at epoch %d but peer rank %d is at epoch %d; re-enter at the current epoch",
		e.Rank, e.Local, e.Peer, e.Remote)
}

// FailPolicy selects what a fenced transfer does when a rank it depends on
// is (or becomes) dead.
type FailPolicy int

const (
	// FailStrict aborts the transfer: the caller gets *core.ErrRankDown
	// after the destination has drained whatever expected messages can
	// still arrive, so the tag namespace stays clean for a retry.
	FailStrict FailPolicy = iota
	// FailRedistribute re-plans: the transfer completes on the
	// surviving pairs, the schedule cache entry (if any) is
	// invalidated, and elements whose only source died are recorded in
	// the destination's validity bitmap instead of failing the whole
	// cohort.
	FailRedistribute
)

// FenceOpts is the old name of TransferOpts, from when fencing had an
// options struct of its own.
//
// Deprecated: use TransferOpts. Kept only because bench/, which may not
// be edited in the same change, builds FenceOpts literals.
type FenceOpts = TransferOpts

// Outcome reports what a fenced transfer did beyond moving data.
type Outcome struct {
	// Epoch is the membership epoch the transfer was fenced at (sampled
	// on entry).
	Epoch uint64
	// Down lists the group ranks observed dead during the transfer
	// (sorted). Empty on a fully clean transfer.
	Down []int
	// Validity is the destination-side bitmap over dstLocal; nil on
	// ranks that are not destinations. AllValid() reports a transfer
	// that lost nothing.
	Validity *dad.Validity
	// Replanned is the restricted schedule the survivors executed, set
	// only when a FailRedistribute re-plan happened.
	Replanned *schedule.Schedule
}

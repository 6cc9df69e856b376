// Epoch-fenced, failure-aware transfer executors.
//
// Exchange and LinearExchange assume both cohorts stay alive: a crashed
// source rank leaves its destinations blocked in Recv forever. The fenced
// variants below run the same engine against a core.Membership view:
// messages are stamped with the membership epoch in force when the
// transfer began, receivers reject stale-epoch leftovers of pre-failure
// attempts, and a rank death observed mid-transfer either aborts the
// transfer with a typed *core.ErrRankDown (FailStrict) or re-plans it
// against the surviving ranks (FailRedistribute), completing on the live
// pairs and recording the lost elements in a dad.Validity bitmap.
//
// The fenced functions are wrappers: they build a fenceRun and call the
// same exchangeT/linearExchangeT the unfenced functions use, which run
// the single transfer loop in budget.go.
package redist

import (
	"fmt"
	"sort"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/linear"
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
	Transfer string // "exchange" or "linear"
	Rank     int    // local cohort rank that found itself stale
	Peer     int    // peer cohort rank whose message carried the newer epoch
	Local    uint64 // this rank's entry epoch
	Remote   uint64 // the epoch stamped on the peer's message
}

func (e *StaleLocalEpochError) Error() string {
	return fmt.Sprintf("redist: %s transfer: rank %d entered at epoch %d but peer rank %d is at epoch %d; re-enter at the current epoch",
		e.Transfer, e.Rank, e.Local, e.Peer, e.Remote)
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

// FenceOpts configures a fenced transfer.
type FenceOpts struct {
	// Membership is the shared liveness view. Ranks are communicator
	// *group* ranks (the same space Layout maps cohort ranks into), so
	// one membership covers both cohorts. Required.
	Membership *core.Membership
	// Policy selects abort-vs-replan. Default FailStrict.
	Policy FailPolicy
	// PollInterval is the receive-poll granularity used instead of a
	// blocking Recv, so membership changes are noticed while waiting.
	// Default 2ms.
	PollInterval time.Duration
	// SuspectAfter, when positive, is receiver-side failure detection:
	// a peer whose expected message has not arrived after this long is
	// marked down in Membership (and the policy applied), even with no
	// heartbeat detector running. Zero disables suspicion: only
	// Membership declares deaths.
	SuspectAfter time.Duration
	// Cache, when set, has its (Src, Dst) entry invalidated whenever a
	// death forces a re-plan, so later transfers rebuild from current
	// templates. The cache deduplicates in-flight builds, so when every
	// survivor hits the invalidated entry in the same epoch the planner
	// runs once, not once per rank — and for regular template pairs the
	// rebuild takes the closed-form fast path, keeping the re-plan cost
	// of the same order as a single transfer step.
	Cache *schedule.Cache
	// Desc, when set, receives the destination validity bitmap via
	// SetValidity(dstRank, ...) whenever a re-planned transfer loses
	// elements — the "partial data marked on the destination DAD" hook.
	Desc *dad.Descriptor
	// MaxBytesInFlight, when positive, bounds this rank's resident packed
	// bytes (see TransferOpts and budget.go). Rounds carry the entry
	// epoch on every chunk, and the failure policies apply per chunk
	// exactly as they apply per message.
	// Back-to-back budgeted transfers between the same ranks must use
	// distinct base tags (see TransferOpts.MaxBytesInFlight).
	MaxBytesInFlight int
}

func (o FenceOpts) withDefaults() FenceOpts {
	if o.PollInterval <= 0 {
		o.PollInterval = 2 * time.Millisecond
	}
	return o
}

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
	// only when a FailRedistribute re-plan happened (schedule-driven
	// transfers only).
	Replanned *schedule.Schedule
}

// ExchangeFencedT is ExchangeT under a liveness view: identical protocol
// and tag usage, but sends are epoch-stamped and skip dead destinations,
// and a destination that observes a source death applies opts.Policy
// instead of blocking forever. See FenceOpts and Outcome for the knobs and
// the report.
func ExchangeFencedT[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []T,
	baseTag int, opts FenceOpts) (*Outcome, error) {

	// A schedule-driven sender aborts on a dead destination under
	// FailStrict: the destination's missing message would wedge the
	// collective protocol.
	f := newFenceRun(opts, true)
	err := exchangeT(c, s, lay, srcLocal, dstLocal, baseTag, f, opts.MaxBytesInFlight, false)
	sort.Ints(f.out.Down)
	return f.out, err
}

// ExchangeFenced is ExchangeFencedT for float64, the historical default.
func ExchangeFenced(c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []float64,
	baseTag int, opts FenceOpts) (*Outcome, error) {
	return ExchangeFencedT[float64](c, s, lay, srcLocal, dstLocal, baseTag, opts)
}

// LinearExchangeFencedT is LinearExchangeT under a liveness view. The
// receiver-driven protocol is unchanged (requests on baseTag, replies on
// baseTag+1), but requests and replies carry the sender's entry epoch,
// stale-epoch traffic is discarded, sources poll for requests only from
// destinations that are still alive, and a destination losing a source
// applies opts.Policy — under FailRedistribute the positions that source
// owned of this destination's needs are invalidated in the validity
// bitmap and the transfer completes on the surviving sources.
func LinearExchangeFencedT[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []T, baseTag int, opts FenceOpts) (*Outcome, error) {

	// A receiver-driven source owes the destinations nothing it was not
	// asked for: replies to dead requesters are skipped, never aborted on.
	f := newFenceRun(opts, false)
	err := linearExchangeT(c, srcLin, dstLin, lay, nSrc, nDst, srcLocal, dstLocal, baseTag, f, opts.MaxBytesInFlight)
	sort.Ints(f.out.Down)
	return f.out, err
}

// LinearExchangeFenced is LinearExchangeFencedT for float64, the
// historical default.
func LinearExchangeFenced(c *comm.Comm, srcLin, dstLin linear.Linearizer, lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []float64, baseTag int, opts FenceOpts) (*Outcome, error) {
	return LinearExchangeFencedT[float64](c, srcLin, dstLin, lay, nSrc, nDst, srcLocal, dstLocal, baseTag, opts)
}

package prmi

import "mxn/internal/obs"

// PRMI instruments, registered in the process-default registry. Call
// counters are incremented once per invocation on the initiating side;
// endpoint counters once per serviced invocation per callee rank.
var (
	mCallsIndependent = obs.Default().Counter("prmi.calls_independent")
	mCallsCollective  = obs.Default().Counter("prmi.calls_collective")
	mCallsOneway      = obs.Default().Counter("prmi.calls_oneway")
	mTimeouts         = obs.Default().Counter("prmi.timeouts")
	mStaleDropped     = obs.Default().Counter("prmi.stale_replies_dropped")
	mPullsServed      = obs.Default().Counter("prmi.pulls_served")
	mEndpointInvokes  = obs.Default().Counter("prmi.endpoint_invocations")
	mEndpointStalls   = obs.Default().Counter("prmi.endpoint_stalls")
	mCallNS           = obs.Default().Histogram("prmi.call_ns")

	// Failure-awareness instruments.
	mStaleEpochCalls = obs.Default().Counter("prmi.stale_epoch_rejected")
	mRankdownErrors  = obs.Default().Counter("prmi.rankdown_errors")

	// Parallel-fragment data path. At quiescence every packed element has
	// been unpacked exactly once: frag_elems_packed == frag_elems_unpacked.
	// frag_bytes_lent counts payload bytes handed to a Link by reference.
	mFragElemsPacked   = obs.Default().Counter("prmi.frag_elems_packed")
	mFragElemsUnpacked = obs.Default().Counter("prmi.frag_elems_unpacked")
	mFragBytesLent     = obs.Default().Counter("prmi.frag_bytes_lent")

	// Malleability instrument: caller departures during an online shrink.
	mDetaches = obs.Default().Counter("prmi.caller_detaches")
)

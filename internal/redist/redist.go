// Package redist executes parallel data redistribution: it moves the
// elements named by a communication schedule (or by a linearization) from
// source local buffers to destination local buffers, in parallel, with no
// global synchronization and no central data-management process.
//
// All transfers run on one generic loop (runTransfer in budget.go): a
// plan enumerates the pairwise messages, the loop packs each — whole, or
// chunk by chunk under a memory budget — into pooled raw-byte buffers,
// sends, receives, validates and unpacks. The element type is a type
// parameter (see Elem); the exported float64 functions are thin
// instantiations. Four paths share the loop:
//
//   - ExecuteLocal: a single-goroutine reference executor used by tests
//     and as the baseline for benchmark comparisons.
//   - Exchange: the schedule-driven parallel executor over a comm
//     communicator whose group contains both cohorts. Each pairwise
//     message is independent — the asynchronous point-to-point structure
//     the paper's M×N component achieves with matched dataReady() calls.
//   - LinearExchange: the receiver-driven protocol of the Indiana MPI-IO
//     M×N device (Section 2.2.1): each receiver tells the senders which
//     linear chunks it requires, and no communication schedule is ever
//     computed. The per-transfer request traffic is the price.
//   - The Fenced variants (fenced.go): the same two protocols under a
//     liveness view, with epoch stamps and failure policies.
//
// Error hygiene: a destination that detects a malformed or mis-sized
// message still consumes every message its transfer expects before
// returning the (typed) error, so a failed transfer never leaves messages
// queued under its tag to cross-match the next transfer reusing that tag.
//
// Steady-state transfers over a cached schedule allocate nothing: message
// headers and data buffers come from free lists (see bufpool), and the
// schedule plan is a by-value struct. TestExchangeSteadyStateZeroAlloc
// guards this.
package redist

import (
	"fmt"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/linear"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// Redistribution instruments, registered in the process-default registry.
// The pack/unpack histograms time per-pair buffer staging; the element
// histograms record message granularity. All updates are single atomic
// operations: enabling metrics adds zero allocations to the pack/send
// path (guarded by TestExchangeMetricsZeroAlloc).
var (
	mLocalExecs  = obs.Default().Counter("redist.local_execs")
	mTransfers   = obs.Default().Counter("redist.transfers")
	mMsgsSent    = obs.Default().Counter("redist.msgs_sent")
	mMsgsRecv    = obs.Default().Counter("redist.msgs_recv")
	mElemsPacked = obs.Default().Counter("redist.elems_packed")
	mElemsUnpack = obs.Default().Counter("redist.elems_unpacked")
	mErrors      = obs.Default().Counter("redist.errors")
	mDrained     = obs.Default().Counter("redist.msgs_drained_after_error")
	mPackNS      = obs.Default().Histogram("redist.pack_ns")
	mUnpackNS    = obs.Default().Histogram("redist.unpack_ns")
	mMsgElems    = obs.Default().Histogram("redist.msg_elems")
	mLinRequests = obs.Default().Counter("redist.linear_requests")
	mLinReplies  = obs.Default().Counter("redist.linear_replies")
)

// ElemCountError reports a received fragment whose element count (or
// position set) does not match what the schedule or linearization
// intersection requires. It is a typed error so callers can distinguish a
// data-integrity failure from transport-level trouble.
type ElemCountError struct {
	Transfer string // "exchange" or "linear"
	DstRank  int    // destination cohort rank that detected the mismatch
	SrcRank  int    // offending source cohort rank, or -1 for the whole transfer
	Got      int
	Want     int
}

func (e *ElemCountError) Error() string {
	if e.SrcRank < 0 {
		return fmt.Sprintf("redist: %s transfer: destination rank %d received %d elements, expected %d",
			e.Transfer, e.DstRank, e.Got, e.Want)
	}
	return fmt.Sprintf("redist: %s transfer: destination rank %d received %d elements from source rank %d, expected %d",
		e.Transfer, e.DstRank, e.Got, e.SrcRank, e.Want)
}

// ExecuteLocalT runs a whole schedule within one goroutine, packing from
// srcLocals[i] and unpacking into dstLocals[j]. It is the reference
// executor: the parallel paths must produce identical results.
//
// Every pair is packed before any pair is unpacked: srcLocals and
// dstLocals may alias (a self-redistribution such as an in-place
// transpose, the Layout{SrcBase == DstBase} analogue), and an interleaved
// pack/unpack would read elements an earlier pair's unpack had already
// overwritten. The staging buffer is drawn from the buffer pool, so
// repeated local executions allocate nothing.
func ExecuteLocalT[T Elem](s *schedule.Schedule, srcLocals, dstLocals [][]T) {
	total := 0
	for _, p := range s.Pairs {
		total += p.Elems
	}
	raw := bufpool.Get(total * elemSize[T]())
	backing := elemsOf[T](raw, total)
	off := 0
	for _, p := range s.Pairs {
		schedule.PackSlice(p, srcLocals[p.SrcRank], backing[off:off+p.Elems])
		off += p.Elems
	}
	off = 0
	for _, p := range s.Pairs {
		schedule.UnpackSlice(p, dstLocals[p.DstRank], backing[off:off+p.Elems])
		off += p.Elems
	}
	bufpool.Put(raw)
	mLocalExecs.Inc()
	mElemsPacked.Add(uint64(total))
	mElemsUnpack.Add(uint64(total))
}

// ExecuteLocal is ExecuteLocalT for float64, the historical default.
func ExecuteLocal(s *schedule.Schedule, srcLocals, dstLocals [][]float64) {
	ExecuteLocalT[float64](s, srcLocals, dstLocals)
}

// Layout places the two cohorts of a transfer within one communicator
// group: source rank i is group rank SrcBase+i, destination rank j is
// group rank DstBase+j. For a self-redistribution (same cohort on both
// sides, e.g. a transpose) use SrcBase == DstBase.
type Layout struct {
	SrcBase, DstBase int
}

// ExchangeT performs one schedule-driven transfer of T elements. Every
// member of the communicator group hosting a source or destination rank
// must call it (with the same T: a kind mismatch surfaces as a typed
// *ElemKindError on the destination). srcLocal may be nil on ranks that
// are not sources; dstLocal may be nil on ranks that are not destinations.
// baseTag reserves a tag namespace so concurrent transfers on one
// communicator cannot cross-match; callers performing T concurrent
// transfers must space their base tags by at least one.
//
// The transfer decomposes into independent pairwise messages: sources
// pack and post all their sends without waiting, then each destination
// consumes exactly the messages addressed to it. No barrier is involved
// on either side. A destination that detects a malformed message consumes
// the rest of its expected messages before returning the error, keeping
// the tag namespace clean for the next transfer.
func ExchangeT[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []T, baseTag int) error {
	return exchangeT(c, s, lay, srcLocal, dstLocal, baseTag, nil, 0, false)
}

// Exchange is ExchangeT for float64, the historical default.
func Exchange(c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []float64, baseTag int) error {
	return exchangeT(c, s, lay, srcLocal, dstLocal, baseTag, nil, 0, false)
}

// TransferOpts tunes a transfer's resource envelope.
type TransferOpts struct {
	// MaxBytesInFlight, when positive, bounds the packed transfer
	// payload bytes this rank holds resident at once: pairwise messages
	// are split into chunks and moved in acknowledged rounds of at most
	// half the budget each, the next round packing while the previous
	// one is in flight (see budget.go). Every rank of one transfer must
	// pass the same value — both sides derive the identical chunk
	// decomposition from it instead of negotiating. Zero or negative
	// means no bound: the same protocol with one chunk per message, one
	// round and no acknowledgements.
	//
	// Budgets smaller than two elements degrade to element-at-a-time
	// chunks, making the bound best-effort rather than hard.
	//
	// A budgeted rank receives from any source under the transfer's data
	// tag, so back-to-back transfers between the same ranks must use
	// distinct base tags when either is budgeted: with no barrier between
	// them, a rank that finishes early can land its next transfer's
	// messages inside a slower peer's still-running loop. An unbudgeted
	// transfer receives from specific peers in plan order and tolerates
	// tag reuse.
	MaxBytesInFlight int

	// ZeroCopyLocal opts this rank's sends into the contiguous-run fast
	// path: an outgoing pairwise message that is a single run contiguous
	// in srcLocal is lent to in-process receivers as a view of the
	// caller's slice — zero pack, zero copy. The engine rendezvouses
	// with those receivers before Exchange returns, so the caller may
	// mutate srcLocal immediately afterwards, exactly as on the copying
	// path; the cost is that a source rank no longer returns before its
	// in-process destinations have unpacked. Remote destinations,
	// fenced transfers and budgeted (MaxBytesInFlight > 0) transfers
	// always use the copying path regardless of this flag.
	ZeroCopyLocal bool
}

// ExchangeWithT is ExchangeT with explicit transfer options; identical
// destination contents, different peak-memory profile.
func ExchangeWithT[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []T,
	baseTag int, opts TransferOpts) error {
	return exchangeT(c, s, lay, srcLocal, dstLocal, baseTag, nil, opts.MaxBytesInFlight, opts.ZeroCopyLocal)
}

// ExchangeWith is ExchangeWithT for float64, the historical default.
func ExchangeWith(c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []float64,
	baseTag int, opts TransferOpts) error {
	return exchangeT(c, s, lay, srcLocal, dstLocal, baseTag, nil, opts.MaxBytesInFlight, opts.ZeroCopyLocal)
}

// exchangeT validates cohort membership and buffer sizes, builds the
// schedule plan and runs the engine. f selects fenced (non-nil) vs plain
// operation; both Exchange and ExchangeFenced land here.
func exchangeT[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []T, baseTag int, f *fenceRun, budget int, zc bool) error {
	me := c.Rank()
	srcRank := me - lay.SrcBase
	dstRank := me - lay.DstBase
	isSrc := srcRank >= 0 && srcRank < s.Src.NumProcs()
	isDst := dstRank >= 0 && dstRank < s.Dst.NumProcs()
	// A nil buffer is an error only on ranks the template actually
	// assigns elements: ranks whose local count is zero (irregular
	// distributions with empty blocks) legitimately pass nil.
	if isSrc && srcLocal == nil && s.Src.LocalCount(srcRank) > 0 {
		return fmt.Errorf("redist: group rank %d is source rank %d but has no source buffer", me, srcRank)
	}
	if isDst && dstLocal == nil && s.Dst.LocalCount(dstRank) > 0 {
		return fmt.Errorf("redist: group rank %d is destination rank %d but has no destination buffer", me, dstRank)
	}
	if isSrc {
		if want := s.Src.LocalCount(srcRank); len(srcLocal) != want {
			return fmt.Errorf("redist: source rank %d buffer has %d elements, template says %d", srcRank, len(srcLocal), want)
		}
	}
	if isDst {
		if want := s.Dst.LocalCount(dstRank); len(dstLocal) != want {
			return fmt.Errorf("redist: destination rank %d buffer has %d elements, template says %d", dstRank, len(dstLocal), want)
		}
	}
	pl := schedPlan[T]{s: s, lay: lay, src: -1, dst: -1, srcLocal: srcLocal, dstLocal: dstLocal, zc: zc}
	if isSrc {
		pl.src = srcRank
	}
	if isDst {
		pl.dst = dstRank
	}
	return runTransfer[T](c, pl, baseTag, f, budget)
}

// linRequest is a destination rank's chunk request in the receiver-driven
// protocol.
type linRequest struct {
	dstRank int
	need    linear.Set
	epoch   uint64 // membership epoch stamp; 0 = unfenced transfer
}

// LinearExchangeT performs one transfer of T elements using linearization
// with receiver-driven requests and no schedule. srcLin and dstLin must
// linearize their respective templates into the same abstract linear
// space (same TotalLen); the correspondence of positions is the implicit
// source-to-destination mapping.
//
// Protocol per transfer: every destination rank sends its needed interval
// set to every source rank; every source intersects each request with its
// owned set and replies with (positions, data); destinations unpack each
// reply. Tag usage: baseTag for requests, baseTag+1 for replies, so a
// caller running concurrent linear exchanges must space base tags by two.
//
// Each reply is received from its specific source rank and validated
// against the intersection of that source's owned positions with this
// destination's needs; a mismatch surfaces as an *ElemCountError after
// the remaining expected replies have been drained.
func LinearExchangeT[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []T, baseTag int) error {
	return linearExchangeT(c, srcLin, dstLin, lay, nSrc, nDst, srcLocal, dstLocal, baseTag, nil, 0)
}

// LinearExchange is LinearExchangeT for float64, the historical default.
func LinearExchange(c *comm.Comm, srcLin, dstLin linear.Linearizer, lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []float64, baseTag int) error {
	return linearExchangeT(c, srcLin, dstLin, lay, nSrc, nDst, srcLocal, dstLocal, baseTag, nil, 0)
}

// LinearExchangeWithT is LinearExchangeT with explicit transfer options:
// the request phase is unchanged (request traffic is tiny), but replies
// move through the memory-bounded chunked protocol when a budget is set.
func LinearExchangeWithT[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []T, baseTag int, opts TransferOpts) error {
	return linearExchangeT(c, srcLin, dstLin, lay, nSrc, nDst, srcLocal, dstLocal, baseTag, nil, opts.MaxBytesInFlight)
}

// linearExchangeT runs the receiver-driven negotiation (requests on
// baseTag), then hands the resulting plan to the engine for the data
// transfer (replies on baseTag+1). f selects fenced vs plain operation;
// both LinearExchange and LinearExchangeFenced land here.
func linearExchangeT[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst int,
	srcLocal, dstLocal []T, baseTag int, f *fenceRun, budget int) error {

	if srcLin.TotalLen() != dstLin.TotalLen() {
		return fmt.Errorf("redist: linearizations disagree on length: %d vs %d", srcLin.TotalLen(), dstLin.TotalLen())
	}
	me := c.Rank()
	srcRank := me - lay.SrcBase
	dstRank := me - lay.DstBase
	isSrc := srcRank >= 0 && srcRank < nSrc
	isDst := dstRank >= 0 && dstRank < nDst
	reqTag, dataTag := baseTag, baseTag+1

	pl := &linPlan[T]{lay: lay, src: -1, dst: -1, srcLin: srcLin, dstLin: dstLin, srcLocal: srcLocal, dstLocal: dstLocal}
	var epoch uint64
	if f != nil {
		epoch = f.entryEpoch
	}

	// Destinations broadcast their needs to every (live) source. This is
	// the "small communication overhead" the paper attributes to the
	// Indiana approach.
	if isDst {
		pl.dst = dstRank
		pl.need = dstLin.OwnedBy(dstRank)
		for sr := 0; sr < nSrc; sr++ {
			sg := lay.SrcBase + sr
			if f != nil && !f.opts.Membership.IsAlive(sg) {
				f.noteDown(sg)
				mSendsSkippedDead.Inc()
				continue
			}
			c.Send(sg, reqTag, linRequest{dstRank: dstRank, need: pl.need, epoch: epoch})
			mLinRequests.Inc()
		}
		// Expect one reply per source. Sources that were dead at entry (or
		// die later) stay in the plan: the engine's liveness check settles
		// them — under FailStrict as a typed abort, under FailRedistribute
		// as invalidated positions — without ever blocking on them.
		pl.inSrc = make([]int, nSrc)
		pl.inSets = make([]linear.Set, nSrc)
		for sr := 0; sr < nSrc; sr++ {
			pl.inSrc[sr] = sr
			pl.inSets[sr] = srcLin.OwnedBy(sr).Intersect(pl.need)
		}
	}

	// Sources collect one request per (live) destination. Requests are
	// consumed first and validated second: a malformed request must not
	// abandon the loop with later requests still queued under reqTag.
	if isSrc {
		pl.src = srcRank
		owned := srcLin.OwnedBy(srcRank)
		if f == nil {
			var firstErr error
			for i := 0; i < nDst; i++ {
				payload, _ := c.Recv(comm.AnySource, reqTag)
				req, ok := payload.(linRequest)
				if !ok {
					if firstErr == nil {
						firstErr = fmt.Errorf("redist: source rank %d received %T, want request", srcRank, payload)
					}
					mDrained.Inc()
					continue
				}
				pl.outDst = append(pl.outDst, req.dstRank)
				pl.outSets = append(pl.outSets, owned.Intersect(req.need))
			}
			if firstErr != nil {
				mErrors.Inc()
				return firstErr
			}
		} else {
			// Poll so a destination that dies before requesting does not
			// hang the source; discard stale-epoch leftovers.
			m := f.opts.Membership
			pending := map[int]bool{}
			for d := 0; d < nDst; d++ {
				pending[lay.DstBase+d] = true
			}
			waited := time.Duration(0)
			var staleLocal error
			for len(pending) > 0 {
				for dg := range pending {
					if !m.IsAlive(dg) {
						f.noteDown(dg)
						delete(pending, dg)
					}
				}
				if len(pending) == 0 {
					break
				}
				payload, from, ok := c.RecvTimeout(comm.AnySource, reqTag, f.opts.PollInterval)
				if !ok {
					waited += f.opts.PollInterval
					if f.opts.SuspectAfter > 0 && waited >= f.opts.SuspectAfter {
						for dg := range pending {
							m.MarkDown(dg)
						}
					}
					continue
				}
				req, isReq := payload.(linRequest)
				if isReq && req.epoch != 0 && req.epoch < f.entryEpoch {
					mStaleEpoch.Inc()
					continue
				}
				if !isReq {
					mDrained.Inc()
					continue
				}
				delete(pending, from)
				if req.epoch > f.entryEpoch {
					// The requester already re-planned into a newer epoch:
					// any reply this source packs against its stale view
					// would be rejected over there as stale anyway. Keep
					// consuming the remaining requests (tag hygiene), then
					// surface a typed error so the caller re-enters the
					// transfer at the current epoch.
					if staleLocal == nil {
						mStaleLocal.Inc()
						staleLocal = &StaleLocalEpochError{Transfer: "linear", Rank: srcRank, Peer: req.dstRank, Local: f.entryEpoch, Remote: req.epoch}
					}
					continue
				}
				if staleLocal != nil {
					mDrained.Inc()
					continue
				}
				pl.outDst = append(pl.outDst, req.dstRank)
				pl.outSets = append(pl.outSets, owned.Intersect(req.need))
			}
			if staleLocal != nil {
				mErrors.Inc()
				return staleLocal
			}
		}
	}

	return runTransfer[T](c, pl, dataTag, f, budget)
}

// Package redist executes parallel data redistribution: it moves the
// elements named by a communication schedule (or by a linearization) from
// source local buffers to destination local buffers, in parallel, with no
// global synchronization and no central data-management process.
//
// A rank builds one Transfer per coupling and runs it every step — the
// paper's schedule reuse (§2.3) carried up to the executor, and the shape
// of its M×N component: a connection built once, then driven by matched
// dataReady() calls (§4.1). Two constructors pick the protocol:
//
//   - New: schedule-driven. Each pairwise message is independent — the
//     asynchronous point-to-point structure the paper's M×N component
//     achieves with matched dataReady() calls.
//   - NewLinear: the receiver-driven protocol of the Indiana MPI-IO M×N
//     device (Section 2.2.1): on every Run each receiver tells the
//     senders which linear chunks it requires, and no communication
//     schedule is ever computed. The per-transfer request traffic is the
//     price.
//
// Everything else — fencing under a liveness view, a memory budget,
// lending to in-process ranks, a resize migration pinned to its prepare
// epoch — is a TransferOpts field, and every combination runs the one
// loop in budget.go. ExecuteLocalT is the single-goroutine reference
// executor the parallel paths must match.
//
// Error hygiene: a destination that detects a malformed or mis-sized
// message still consumes every message its transfer expects before
// returning the (typed) error, so a failed transfer never leaves messages
// queued under its tag to cross-match the next transfer reusing that tag.
//
// Steady-state Runs over a cached schedule allocate nothing: the handle
// owns its per-run state, message headers and data buffers come from free
// lists (see bufpool). TestExchangeSteadyStateZeroAlloc guards this.
package redist

import (
	"fmt"
	"math"
	"sort"
	"time"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
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

// ExecuteLocalT runs a whole schedule within one goroutine, moving each
// pair from srcLocals[i] into dstLocals[j]. It is the reference executor:
// the parallel paths must produce identical results.
//
// Each pair is copied straight from source to destination, with no
// staging buffer. When any source slice overlaps any destination slice —
// a self-redistribution such as an in-place transpose, the
// Layout{SrcBase == DstBase} analogue — the whole transfer is staged
// instead: every pair is packed before any pair is unpacked, since a
// pair-by-pair copy would read elements an earlier pair had already
// overwritten. The staging buffer is drawn from the buffer pool, so
// repeated local executions allocate nothing.
func ExecuteLocalT[T Elem](s *schedule.Schedule, srcLocals, dstLocals [][]T) {
	total := s.TotalElems()
	if !overlapping(srcLocals, dstLocals) {
		for _, p := range s.Pairs {
			schedule.CopySliceRange(p, srcLocals[p.SrcRank], dstLocals[p.DstRank], 0, p.Elems)
		}
		mLocalExecs.Inc()
		mElemsLent.Add(uint64(total))
		mElemsUnpack.Add(uint64(total))
		return
	}
	raw := bufpool.Get(total * elemSize[T]())
	staged := elemsOf[T](raw, total)
	rest := staged
	for _, p := range s.Pairs {
		schedule.PackSlice(p, srcLocals[p.SrcRank], rest[:p.Elems])
		rest = rest[p.Elems:]
	}
	rest = staged
	for _, p := range s.Pairs {
		schedule.UnpackSlice(p, dstLocals[p.DstRank], rest[:p.Elems])
		rest = rest[p.Elems:]
	}
	bufpool.Put(raw)
	mLocalExecs.Inc()
	mElemsPacked.Add(uint64(total))
	mElemsUnpack.Add(uint64(total))
}

// overlapping reports whether any slice of a shares memory with any slice
// of b.
func overlapping[T Elem](a, b [][]T) bool {
	for _, x := range a {
		for _, y := range b {
			if overlap(x, y) {
				return true
			}
		}
	}
	return false
}

// overlap reports whether x and y share memory.
func overlap[T Elem](x, y []T) bool {
	sz := uintptr(elemSize[T]())
	x0, y0 := uintptr(unsafe.Pointer(unsafe.SliceData(x))), uintptr(unsafe.Pointer(unsafe.SliceData(y)))
	return len(x) > 0 && len(y) > 0 && x0 < y0+uintptr(len(y))*sz && y0 < x0+uintptr(len(x))*sz
}

// Layout places the two cohorts of a transfer within one communicator
// group: source rank i is group rank SrcBase+i, destination rank j is
// group rank DstBase+j. For a self-redistribution (same cohort on both
// sides, e.g. a transpose) use SrcBase == DstBase.
type Layout struct {
	SrcBase, DstBase int
}

// TransferOpts holds every setting of a Transfer. The zero value is an
// unfenced, unbudgeted, copying transfer.
type TransferOpts struct {
	// MaxBytesInFlight, when positive, bounds the packed transfer
	// payload bytes this rank holds resident at once: pairwise messages
	// are split into chunks and moved in acknowledged rounds of at most
	// half the budget each, the next round packing while the previous
	// one is in flight (see budget.go). A chunk for an in-process rank is
	// lent instead of packed (see ZeroCopyLocal): it holds no packed
	// bytes and owes no acknowledgement. Every rank of one transfer must
	// pass the same value — both sides derive the identical chunk
	// decomposition from it instead of negotiating. Zero or negative
	// means no bound: the same protocol with one chunk per message, one
	// round and no acknowledgements. Fenced, rounds carry the entry
	// epoch on every chunk and the failure policies apply per chunk
	// exactly as they apply per message.
	//
	// Budgets smaller than two elements degrade to element-at-a-time
	// chunks, making the bound best-effort rather than hard.
	//
	// A budgeted rank receives from any source under the transfer's data
	// tag, so back-to-back transfers between the same ranks must use
	// distinct base tags, or a barrier, when either is budgeted: with no
	// barrier between them, a source that finishes early can land its
	// next transfer's chunks inside a destination still waiting on a
	// slower source. A budgeted handle therefore Runs back to back only
	// where no destination has two sources, or on a linear plan, whose
	// request phase is that barrier. An unbudgeted transfer receives from
	// specific peers in plan order and tolerates tag reuse — one handle
	// may Run back to back.
	MaxBytesInFlight int

	// ZeroCopyLocal makes an unbudgeted transfer lend, as a budgeted one
	// always does: a schedule-driven chunk for an in-process rank — or
	// for this rank itself, when its source and destination buffers do
	// not overlap — is not packed but lent, as the caller's whole source
	// slice and the chunk's window of the pair's packed order, and the
	// receiver copies the window straight into its destination through
	// its own pair plan, whatever the run shape: one copy instead of a
	// pack and an unpack. Run rendezvouses with those receivers before it
	// returns, so the caller may mutate the source immediately afterwards,
	// exactly as on the copying path; the cost is that a source rank no
	// longer returns before its in-process destinations have copied.
	// Fenced, a destination declared dead has its chunks revoked instead
	// of waited on. Remote destinations, linear transfers and a rank
	// whose source overlaps its destination always pack.
	ZeroCopyLocal bool

	// Membership, when set, fences the transfer under this shared
	// liveness view: messages are stamped with the membership epoch in
	// force when Run began, stale-epoch leftovers are discarded, and a
	// rank death applies Policy instead of blocking forever. Ranks are
	// communicator *group* ranks (the space Layout maps cohort ranks
	// into), so one membership covers both cohorts. A transfer is fenced
	// iff Membership is set; the fields below up to Resize apply only
	// then.
	Membership *core.Membership
	// Policy selects abort-vs-replan. Default FailStrict.
	Policy FailPolicy
	// PollInterval is the receive-poll granularity used instead of a
	// blocking Recv, so membership changes are noticed while waiting.
	// Default 2ms.
	PollInterval time.Duration
	// SuspectAfter, when positive, is receiver-side failure detection:
	// a peer is marked down in Membership (and the policy applied) after
	// this long of silence since the last arrival while it still owes
	// this rank a message, even with no heartbeat detector running. The
	// linear request phase and the transfer loop keep the same clock.
	// Zero disables suspicion: only Membership declares deaths.
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

	// Resize, when set, makes the transfer the migration of a prepared
	// cohort resize (see reconfigure.go): New checks the plan's widths
	// and the group size against it, and every Run enters at its
	// PrepareEpoch instead of sampling the live epoch. Requires
	// Membership.
	Resize *core.Resize
}

// Transfer is one rank's persistent handle on a redistribution: built
// once with New or NewLinear, then Run every step. It owns the rank's
// validated cohort placement, the budget's chunk and round caps, and the
// per-run state (expectation table, credit counters, staged chunks, the
// lent chunks and their rendezvous), so a steady-state Run allocates
// nothing.
//
// Every member of the communicator group hosting a source or destination
// rank builds a handle on the same plan, options and element type, and
// runs it the same number of times (a kind mismatch surfaces as a typed
// *ElemKindError on the destination). A handle serves one rank: Runs
// must not overlap. baseTag reserves a tag namespace — a schedule-driven
// transfer uses baseTag, a linear one baseTag (requests) and baseTag+1
// (replies) — so concurrent transfers on one communicator must space
// their base tags by one (two for linear).
type Transfer[T Elem] struct {
	c    *comm.Comm
	lay  Layout
	pl   plan[T]
	lin  *linPlan[T] // pl's linear form, nil on a schedule: runs the request phase
	tag  int         // data tag
	opts TransferOpts
	// abortOnDeadSend: under FailStrict, a schedule-driven sender aborts
	// on a dead destination (the missing message would wedge the
	// collective protocol); receiver-driven replies just skip dead
	// requesters.
	abortOnDeadSend bool
	total           int // elements the whole transfer moves (resize metric)

	capElems, roundBytes int  // chunk and round caps; unbounded without a budget
	budgeted             bool // acks pace rounds

	// Per-run state, reset by Run.
	epoch       uint64   // entry epoch; 0 unfenced
	out         *Outcome // this run's report; nil unfenced
	staged      []stagedChunk
	pendAck     []int // per send op: chunks sent but not yet acknowledged
	pendingAcks int   // sum of pendAck
	recv        []recvProgress
	recvChunks  int  // sum of recv[i].chunksLeft
	lost        bool // an incoming message was lost to a dead rank
	// lendView is the source buffer this run lends, nil when it lends
	// nothing; lent lists the chunks lent, in send order.
	lendView []byte
	lent     []lentChunk
	// zc is the rendezvous of a run's lent chunks: Run holds this rank
	// until every one has been copied, discarded or revoked, so the
	// caller may mutate its source the moment Run returns — error paths
	// included, since receivers dispose of every expected message even
	// while draining.
	zc rendezvous
}

// New builds this rank's handle on a schedule-driven transfer: sources
// pack and post all their sends without waiting, then each destination
// consumes exactly the messages addressed to it. No barrier is involved
// on either side.
func New[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, baseTag int, opts TransferOpts) (*Transfer[T], error) {
	p := &schedPlan[T]{s: s, lay: lay, src: -1, dst: -1}
	nSrc, nDst := s.Src.NumProcs(), s.Dst.NumProcs()
	if r := c.Rank() - lay.SrcBase; r >= 0 && r < nSrc {
		p.src = r
		p.wantSrc = s.Src.LocalCount(r)
	}
	if r := c.Rank() - lay.DstBase; r >= 0 && r < nDst {
		p.dst = r
		p.wantDst = s.Dst.LocalCount(r)
	}
	return newTransfer[T](c, p, lay, baseTag, opts, nSrc, nDst, s.TotalElems())
}

// NewLinear builds this rank's handle on a receiver-driven transfer that
// uses linearization and no schedule. srcLin and dstLin must linearize
// their respective templates into the same abstract linear space (same
// TotalLen); the correspondence of positions is the implicit
// source-to-destination mapping.
//
// Protocol per Run: every destination rank sends its needed interval set
// to every (live) source rank on baseTag; every source intersects each
// request with its owned set and replies with (positions, data) on
// baseTag+1 through the transfer loop. Each reply is validated against
// the intersection of its source's owned positions with this
// destination's needs; a mismatch surfaces as an *ElemCountError after
// the remaining expected replies have been drained.
func NewLinear[T Elem](c *comm.Comm, srcLin, dstLin linear.LinearizerT[T], lay Layout, nSrc, nDst, baseTag int,
	opts TransferOpts) (*Transfer[T], error) {
	if srcLin.TotalLen() != dstLin.TotalLen() {
		return nil, fmt.Errorf("redist: linearizations disagree on length: %d vs %d", srcLin.TotalLen(), dstLin.TotalLen())
	}
	p := &linPlan[T]{lay: lay, src: -1, dst: -1, nSrc: nSrc, nDst: nDst, srcLin: srcLin, dstLin: dstLin}
	if r := c.Rank() - lay.SrcBase; r >= 0 && r < nSrc {
		p.src = r
		p.owned = srcLin.OwnedBy(r)
	}
	if r := c.Rank() - lay.DstBase; r >= 0 && r < nDst {
		// Expect one reply per source. Sources dead at entry (or dying
		// later) stay in the plan: the loop's liveness check settles them
		// — under FailStrict as a typed abort, under FailRedistribute as
		// invalidated positions — without ever blocking on them.
		p.dst = r
		p.need = dstLin.OwnedBy(r)
		for sr := 0; sr < nSrc; sr++ {
			set := srcLin.OwnedBy(sr).Intersect(p.need)
			p.inSets = append(p.inSets, set)
			p.covered += set.Len()
		}
	}
	return newTransfer[T](c, p, lay, baseTag+1, opts, nSrc, nDst, srcLin.TotalLen())
}

func newTransfer[T Elem](c *comm.Comm, pl plan[T], lay Layout, dataTag int, opts TransferOpts, nSrc, nDst, total int) (*Transfer[T], error) {
	if opts.Resize != nil {
		if err := checkResize(c, lay, opts, nSrc, nDst); err != nil {
			return nil, err
		}
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	esz := elemSize[T]()
	t := &Transfer[T]{c: c, lay: lay, pl: pl, tag: dataTag, opts: opts, total: total,
		capElems: chunkElemCap(opts.MaxBytesInFlight, esz), roundBytes: math.MaxInt}
	t.lin, _ = pl.(*linPlan[T])
	t.abortOnDeadSend = t.lin == nil
	if t.budgeted = t.capElems < math.MaxInt; t.budgeted {
		t.roundBytes = max(t.capElems*esz, opts.MaxBytesInFlight/2)
	}
	for i, n := 0, pl.recvs(); i < n; i++ {
		op := pl.recvOp(i)
		t.recv = append(t.recv, recvProgress{group: op.group, rank: op.rank, elems: op.elems, chunks: chunkCount(op.elems, t.capElems)})
	}
	if t.budgeted || opts.ZeroCopyLocal {
		t.zc.wake = make(chan struct{}, 1)
	}
	return t, nil
}

// Run performs one transfer: src is this rank's source buffer (nil on
// ranks that are not sources, or that the template assigns nothing),
// dst its destination buffer (likewise). It returns an *Outcome when the
// transfer is fenced, nil otherwise.
func (t *Transfer[T]) Run(src, dst []T) (*Outcome, error) {
	t.out = nil
	if m := t.opts.Membership; m != nil {
		if t.epoch = m.Epoch(); t.opts.Resize != nil {
			// Every rank must enter a migration at the resize's prepare
			// epoch, even if a death has already bumped the live epoch
			// past it — otherwise ranks entering before and after the
			// death would fence the same transfer at different epochs and
			// discard each other's traffic as stale.
			t.epoch = t.opts.Resize.PrepareEpoch()
		}
		t.out = &Outcome{Epoch: t.epoch}
	}
	if err := t.pl.bind(src, dst); err != nil {
		return t.out, err
	}
	// Lend only a source no receiver can overwrite: this rank writes its
	// destination while its lent chunks are still being read.
	t.lendView = nil
	if lsrc := t.pl.lendSrc(); t.zc.wake != nil && !overlap(lsrc, dst) {
		t.lendView = bytesOf(lsrc)
	}
	start := time.Now()
	err := t.request()
	if err == nil {
		err = t.run()
	}
	if t.out != nil {
		sort.Ints(t.out.Down)
	}
	if rz := t.opts.Resize; rz != nil {
		mReconfigures.Inc()
		mReconfigureNS.ObserveSince(start)
		if err == nil {
			mReconfigureElems.Add(uint64(t.total))
		}
		if rz.Disturbed() {
			mReconfigDisturbed.Inc()
		}
	}
	return t.out, err
}

// noteDown records a group rank observed dead in this run's outcome.
func (t *Transfer[T]) noteDown(group int) {
	for _, g := range t.out.Down {
		if g == group {
			return
		}
	}
	t.out.Down = append(t.out.Down, group)
}

// linRequest is a destination rank's chunk request in the receiver-driven
// protocol.
type linRequest struct {
	dstRank int
	need    linear.Set
	epoch   uint64 // membership epoch stamp; 0 = unfenced transfer
}

// request runs a linear plan's negotiation on the request tag (one below
// the data tag): destinations broadcast their needs to every live source
// — the "small communication overhead" the paper attributes to the
// Indiana approach — and sources collect one request per live
// destination into this run's reply list. A schedule plan has no request
// phase.
func (t *Transfer[T]) request() error {
	p := t.lin
	if p == nil {
		return nil
	}
	reqTag := t.tag - 1
	if p.dst >= 0 {
		t.c.Cork() // the requests leave as one batch per remote peer
		for sr := 0; sr < p.nSrc; sr++ {
			sg := t.lay.SrcBase + sr
			if t.out != nil && !t.opts.Membership.IsAlive(sg) {
				t.noteDown(sg)
				mSendsSkippedDead.Inc()
				continue
			}
			t.c.Send(sg, reqTag, linRequest{dstRank: p.dst, need: p.need, epoch: t.epoch})
			mLinRequests.Inc()
		}
		t.c.Flush()
	}
	if p.src < 0 {
		return nil
	}
	p.outDst, p.outSets = p.outDst[:0], p.outSets[:0]
	// Requests are consumed first and validated second: a malformed
	// request must not abandon the loop with later requests still queued
	// under reqTag.
	if t.out == nil {
		var firstErr error
		for i := 0; i < p.nDst; i++ {
			payload, _ := t.c.Recv(comm.AnySource, reqTag)
			req, ok := payload.(linRequest)
			if !ok {
				if firstErr == nil {
					firstErr = fmt.Errorf("redist: source rank %d received %T, want request", p.src, payload)
				}
				mDrained.Inc()
				continue
			}
			p.reply(req)
		}
		if firstErr != nil {
			mErrors.Inc()
		}
		return firstErr
	}

	// Fenced: poll so a destination that dies before requesting does not
	// hang the source; discard stale-epoch leftovers.
	m := t.opts.Membership
	pending := map[int]bool{}
	for d := 0; d < p.nDst; d++ {
		pending[t.lay.DstBase+d] = true
	}
	waited := time.Duration(0) // silence since the last arrival
	var staleLocal error
	for len(pending) > 0 {
		for dg := range pending {
			if !m.IsAlive(dg) {
				t.noteDown(dg)
				delete(pending, dg)
			}
		}
		if len(pending) == 0 {
			break
		}
		payload, from, ok := t.c.RecvTimeout(comm.AnySource, reqTag, t.opts.PollInterval)
		if !ok {
			waited += t.opts.PollInterval
			if t.opts.SuspectAfter > 0 && waited >= t.opts.SuspectAfter {
				for dg := range pending {
					m.MarkDown(dg)
				}
				waited = 0
			}
			continue
		}
		waited = 0
		req, isReq := payload.(linRequest)
		if isReq && req.epoch != 0 && req.epoch < t.epoch {
			mStaleEpoch.Inc()
			continue
		}
		if !isReq {
			mDrained.Inc()
			continue
		}
		delete(pending, from)
		if req.epoch > t.epoch {
			// The requester already re-planned into a newer epoch: any
			// reply this source packs against its stale view would be
			// rejected over there as stale anyway. Keep consuming the
			// remaining requests (tag hygiene), then surface a typed error
			// so the caller re-enters the transfer at the current epoch.
			if staleLocal == nil {
				mStaleLocal.Inc()
				staleLocal = &StaleLocalEpochError{Transfer: "linear", Rank: p.src, Peer: req.dstRank, Local: t.epoch, Remote: req.epoch}
			}
			continue
		}
		if staleLocal != nil {
			mDrained.Inc()
			continue
		}
		p.reply(req)
	}
	if staleLocal != nil {
		mErrors.Inc()
	}
	return staleLocal
}

// ExchangeT builds a schedule-driven handle and runs it once.
//
// Deprecated: build the handle once with New and Run it every step. Kept
// only because bench/, which may not be edited in the same change, calls
// it.
func ExchangeT[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, srcLocal, dstLocal []T, baseTag int) error {
	_, err := runOnce(c, s, lay, srcLocal, dstLocal, baseTag, TransferOpts{})
	return err
}

// runOnce is the deprecated wrappers' body: build a handle on s and run
// it once.
func runOnce[T Elem](c *comm.Comm, s *schedule.Schedule, lay Layout, src, dst []T, baseTag int,
	opts TransferOpts) (*Outcome, error) {
	t, err := New[T](c, s, lay, baseTag, opts)
	if err != nil {
		return nil, err
	}
	return t.Run(src, dst)
}

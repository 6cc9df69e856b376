// The transfer engine's messages, pools and plans. Every Transfer —
// schedule-driven or linear, fenced or unfenced, budgeted or not — holds
// a plan and runs it through the single send/recv loop in budget.go. The
// plan abstracts what differs (which pairwise messages exist, how a window
// of each is packed/validated/unpacked, what a lost source invalidates);
// the loop owns everything that must behave identically (chunking, credit,
// epoch stamping, liveness checks, stale-epoch rejection, suspicion,
// drain-after-error hygiene, metrics, tracing).
//
// A plan is built once, at New, and bound to the caller's buffers on
// every Run; the handle boxes it in the plan interface once, so the
// steady-state path makes no per-run heap allocation.

package redist

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// xferMsg is the one wire payload of the transfer engine: an element-kind
// tag, an epoch stamp (0 on unfenced transfers), and the packed elements
// as raw bytes. have carries the linear-position metadata of
// receiver-driven replies; it is nil on schedule-driven messages.
//
// Messages are pooled: senders obtain one with newMsg, receivers return it
// with recycle after unpacking. A message comm drops in transit (a dead
// end of the pair, a mailbox emptied by Kill, a torn-down remote peer) is
// recycled through Release, the comm.Releaser hook. A lent chunk (see
// lender) is the exception: its sender keeps it, and recycle only hands
// it back.
type xferMsg struct {
	epoch uint64
	kind  dad.ElemKind
	elems int
	data  []byte
	// frame, when non-nil, is the received frame a remote message was
	// decoded from: data views the elements in place and recycle returns
	// the frame to the pool instead of data.
	frame []byte
	have  linear.Set
	// ack marks a credit message of a budgeted transfer: no data, sent
	// back to a chunk's sender on the same data tag after the chunk is
	// disposed of (see budget.go).
	ack bool
	// lender, when non-nil, marks a lent chunk: data is the sender's whole
	// source slice, not a pooled buffer, and the chunk is the window
	// [off, off+elems) of the pair's packed order, which the receiver
	// copies straight into its destination. It holds no pooled buffer, so
	// it owes no credit. state settles who may still read data: a chunk is
	// chunkLent until the receiver takes it to copy (or to discard it) or
	// the sender revokes it, and either way the lender's rendezvous is
	// released exactly once. The sender owns the message throughout and
	// pools it again after the rendezvous — except a revoked one, which a
	// late receiver may still inspect, and which the GC takes instead.
	lender *rendezvous
	off    int
	state  atomic.Int32
}

// Lent-chunk states.
const (
	chunkLent int32 = iota + 1
	chunkTaken
	chunkRevoked
)

// rendezvous counts a run's lent chunks still readable by a receiver and
// wakes the lending rank when the count reaches zero. A wake token left
// over from an earlier run only makes the lender check the count again.
type rendezvous struct {
	left atomic.Int64
	wake chan struct{}
}

func (z *rendezvous) release() {
	if z.left.Add(-1) == 0 {
		select {
		case z.wake <- struct{}{}:
		default:
		}
	}
}

// take claims a lent chunk for reading; false means its sender revoked it
// and its data must not be read.
func (m *xferMsg) take() bool { return m.state.CompareAndSwap(chunkLent, chunkTaken) }

// maxFreeMsgs bounds the message free list; surplus puts go to the GC.
const maxFreeMsgs = 256

var (
	mMsgPoolHits   = obs.Default().Counter("redist.msg_pool_hits")
	mMsgPoolMisses = obs.Default().Counter("redist.msg_pool_misses")
)

// msgPool is a mutex-guarded free list (not sync.Pool, whose victim cache
// is dropped at GC and would make the zero-alloc guarantee flaky). The
// backing slice is pre-sized so steady-state put never appends beyond
// capacity.
var msgPool = struct {
	mu   sync.Mutex
	free []*xferMsg
}{free: make([]*xferMsg, 0, maxFreeMsgs)}

func getMsg() *xferMsg {
	msgPool.mu.Lock()
	if n := len(msgPool.free); n > 0 {
		m := msgPool.free[n-1]
		msgPool.free[n-1] = nil
		msgPool.free = msgPool.free[:n-1]
		msgPool.mu.Unlock()
		mMsgPoolHits.Inc()
		return m
	}
	msgPool.mu.Unlock()
	mMsgPoolMisses.Inc()
	return new(xferMsg)
}

// newMsg builds a pooled message carrying elems elements of type T, with
// the data buffer drawn from bufpool. The caller packs into Data (via
// elemsOf) before sending.
func newMsg[T Elem](epoch uint64, elems int) *xferMsg {
	m := getMsg()
	m.epoch = epoch
	m.kind = kindOf[T]()
	m.elems = elems
	m.data = bufpool.Get(elems * elemSize[T]())
	m.have = nil
	addInFlight(len(m.data))
	return m
}

// Packed-bytes accounting: every data buffer drawn for a transfer
// message counts toward the process-wide in-flight total from newMsg
// until recycle. The high-water mark is the peak transfer-payload memory
// the engine had resident at once, the quantity MaxBytesInFlight exists
// to bound (TestBudgetedPeakBytesBounded; bench/'s
// redist.peak_packed_bytes).
var (
	bytesInFlight  atomic.Int64
	bytesHighWater atomic.Int64
)

func init() {
	obs.Default().RegisterFunc("redist.packed_bytes_in_flight", bytesInFlight.Load)
	obs.Default().RegisterFunc("redist.packed_bytes_high_water", bytesHighWater.Load)
}

func addInFlight(n int) {
	if n == 0 {
		return
	}
	cur := bytesInFlight.Add(int64(n))
	for {
		hw := bytesHighWater.Load()
		if cur <= hw || bytesHighWater.CompareAndSwap(hw, cur) {
			return
		}
	}
}

// PackedBytesHighWater returns the peak packed transfer-payload bytes
// resident at once since the last reset (process-wide, across every
// concurrent transfer).
func PackedBytesHighWater() int64 { return bytesHighWater.Load() }

// ResetPackedBytesHighWater rebases the high-water mark to the bytes
// currently in flight, so a measurement phase sees only its own peak.
func ResetPackedBytesHighWater() { bytesHighWater.Store(bytesInFlight.Load()) }

// recycle returns a message and its buffer to their pools. A lent chunk's
// data is the sender's own memory and the message is the sender's too:
// recycle releases the sender's rendezvous — unless the sender revoked the
// chunk, which released it already — and touches the message no more.
func recycle(m *xferMsg) {
	if z := m.lender; z != nil {
		if m.state.Load() == chunkTaken || m.take() {
			z.release()
		}
		return
	}
	bytesInFlight.Add(-int64(len(m.data)))
	if m.frame != nil {
		bufpool.PutFrame(m.frame)
	} else {
		bufpool.Put(m.data)
	}
	*m = xferMsg{}
	putMsg(m)
}

// Release implements comm.Releaser: a message comm discards instead of
// delivering is recycled like a consumed one.
func (m *xferMsg) Release() { recycle(m) }

func putMsg(m *xferMsg) {
	msgPool.mu.Lock()
	if len(msgPool.free) < maxFreeMsgs {
		msgPool.free = append(msgPool.free, m)
	}
	msgPool.mu.Unlock()
}

// Lending instruments: chunks lent instead of packed, and their elements.
var (
	mZeroCopyHits = obs.Default().Counter("redist.zerocopy_hits")
	mElemsLent    = obs.Default().Counter("redist.elems_lent")
)

// pairOp describes one pairwise message of a plan from the local rank's
// point of view.
type pairOp struct {
	group int // peer's communicator group rank
	rank  int // peer's cohort rank (error and trace attribution)
	elems int // elements in the message
}

// plan is what a transfer path supplies to the engine: the set of
// pairwise messages this rank sends and expects, and the path-specific
// pack/validate/unpack/loss rules. Implementations: *schedPlan and
// *linPlan.
type plan[T Elem] interface {
	// proto names the path ("exchange" or "linear") in typed errors.
	proto() string
	// srcRank/dstRank are this rank's cohort ranks, -1 outside the cohort.
	srcRank() int
	dstRank() int
	// bind attaches one Run's buffers, checking their lengths where the
	// plan knows them.
	bind(src, dst []T) error
	// dstLen is len(dstLocal); sizes the fenced validity bitmap.
	dstLen() int

	sends() int
	sendOp(i int) pairOp
	// sendSet returns position metadata to attach to the i'th outgoing
	// message (linear replies); nil for schedule-driven messages.
	sendSet(i int) linear.Set
	// lendSrc returns the source buffer the engine may lend to in-process
	// receivers instead of packing chunks of it; nil when the plan cannot
	// lend, as a receiver copies a lent chunk through its own pair plan.
	lendSrc() []T
	// packRange packs the window [elemOff, elemOff+len(out)) of the
	// i'th outgoing message's packed element order: one chunk. Windows
	// tiling the message in order produce its whole packed form; an
	// unbudgeted transfer asks for the one window at offset 0.
	packRange(i, elemOff int, out []T)

	recvs() int
	recvOp(i int) pairOp
	// checkHave validates the position metadata of the chunk opening the
	// i'th expectation; kind, element-count and byte-length checks are
	// the engine's, chunk by chunk.
	checkHave(i int, m *xferMsg) error
	// unpackRange unpacks a chunk holding the window
	// [elemOff, elemOff+len(data)) of the i'th incoming message.
	unpackRange(i, elemOff int, data []T)
	// copyRange copies the window [elemOff, elemOff+n) of the i'th
	// incoming message straight from its sender's whole source buffer: a
	// lent chunk.
	copyRange(i, elemOff int, src []T, n int) error

	// lose applies FailRedistribute to the i'th incoming message whose
	// source is dead: invalidate what it would have delivered in out,
	// replan if the path supports it.
	lose(i int, out *Outcome, o *TransferOpts)
	// finish runs plan-level validation after all receives; lost reports
	// whether any incoming message was lost to a dead rank.
	finish(lost bool) error
}

// schedPlan is the schedule-driven plan: pairwise messages come straight
// from the schedule's per-rank views via the indexed (allocation-free)
// accessors.
type schedPlan[T Elem] struct {
	s                *schedule.Schedule
	lay              Layout
	src, dst         int // cohort ranks, -1 outside the cohort
	wantSrc, wantDst int // the templates' local counts for this rank
	srcLocal         []T
	dstLocal         []T
}

func (p *schedPlan[T]) proto() string { return "exchange" }
func (p *schedPlan[T]) srcRank() int  { return p.src }
func (p *schedPlan[T]) dstRank() int  { return p.dst }
func (p *schedPlan[T]) dstLen() int   { return len(p.dstLocal) }

// bind checks each buffer against the template's local count on ranks
// that play that side (a nil buffer is fine where the template assigns
// the rank nothing).
func (p *schedPlan[T]) bind(src, dst []T) error {
	if p.src >= 0 && len(src) != p.wantSrc {
		return fmt.Errorf("redist: source rank %d buffer has %d elements, template says %d", p.src, len(src), p.wantSrc)
	}
	if p.dst >= 0 && len(dst) != p.wantDst {
		return fmt.Errorf("redist: destination rank %d buffer has %d elements, template says %d", p.dst, len(dst), p.wantDst)
	}
	p.srcLocal, p.dstLocal = src, dst
	return nil
}

func (p *schedPlan[T]) sends() int {
	if p.src < 0 {
		return 0
	}
	return p.s.OutDegree(p.src)
}

func (p *schedPlan[T]) sendOp(i int) pairOp {
	pp := p.s.OutgoingAt(p.src, i)
	return pairOp{group: p.lay.DstBase + pp.DstRank, rank: pp.DstRank, elems: pp.Elems}
}

func (p *schedPlan[T]) sendSet(i int) linear.Set { return nil }

// lendSrc lends the whole source buffer: every pair of a schedule,
// whatever its run shape, can be copied from it by the receiver.
func (p *schedPlan[T]) lendSrc() []T { return p.srcLocal }

func (p *schedPlan[T]) packRange(i, elemOff int, out []T) {
	schedule.PackSliceRange(p.s.OutgoingAt(p.src, i), p.srcLocal, out, elemOff)
}

func (p *schedPlan[T]) recvs() int {
	if p.dst < 0 {
		return 0
	}
	return p.s.InDegree(p.dst)
}

func (p *schedPlan[T]) recvOp(i int) pairOp {
	pp := p.s.IncomingAt(p.dst, i)
	return pairOp{group: p.lay.SrcBase + pp.SrcRank, rank: pp.SrcRank, elems: pp.Elems}
}

// checkHave is a no-op: schedule-driven messages carry no position
// metadata, and a chunk's element count is the engine's check.
func (p *schedPlan[T]) checkHave(i int, m *xferMsg) error { return nil }

func (p *schedPlan[T]) unpackRange(i, elemOff int, data []T) {
	schedule.UnpackSliceRange(p.s.IncomingAt(p.dst, i), p.dstLocal, data, elemOff)
}

// copyRange checks the lent buffer against the source template — the one
// thing a packed chunk's length would have told — and copies the window.
func (p *schedPlan[T]) copyRange(i, elemOff int, src []T, n int) error {
	pp := p.s.IncomingAt(p.dst, i)
	if want := p.s.Src.LocalCount(pp.SrcRank); len(src) != want {
		return &ElemCountError{Transfer: "exchange", DstRank: p.dst, SrcRank: pp.SrcRank, Got: len(src), Want: want}
	}
	schedule.CopySliceRange(pp, src, p.dstLocal, elemOff, n)
	return nil
}

// lose invalidates the elements the dead pair would have delivered, block
// by block, and (once per run) re-plans against the survivors,
// invalidating the schedule cache entry so later transfers rebuild from
// current templates.
func (p *schedPlan[T]) lose(i int, out *Outcome, o *TransferOpts) {
	pp := p.s.IncomingAt(p.dst, i)
	for _, run := range pp.Runs {
		for k := 0; k < run.Count; k++ {
			out.Validity.InvalidateRange(run.DstOff+k*run.DstStride, run.N)
		}
	}
	mElemsInvalidated.Add(uint64(pp.Elems))
	if out.Replanned == nil {
		start := time.Now()
		if o.Cache != nil {
			o.Cache.Invalidate(p.s.Src, p.s.Dst)
		}
		m := o.Membership
		out.Replanned = schedule.Restrict(p.s,
			func(r int) bool { return m.IsAlive(p.lay.SrcBase + r) },
			func(r int) bool { return m.IsAlive(p.lay.DstBase + r) })
		mReplanNS.ObserveSince(start)
		mReplans.Inc()
	}
}

func (p *schedPlan[T]) finish(lost bool) error { return nil }

// linPlan is the receiver-driven plan. Its receive side is fixed at
// NewLinear: one expected reply per source rank (including sources
// already dead at entry, which the engine's liveness check resolves
// without blocking). Its send side is rebuilt by every Run's request
// phase: one reply per collected request.
type linPlan[T Elem] struct {
	lay        Layout
	src, dst   int // cohort ranks, -1 outside the cohort
	nSrc, nDst int
	srcLin     linear.LinearizerT[T]
	dstLin     linear.LinearizerT[T]
	srcLocal   []T
	dstLocal   []T

	// Send side.
	owned   linear.Set   // this source's positions
	outDst  []int        // requester cohort ranks, this run
	outSets []linear.Set // owned ∩ need per requester, this run

	// Receive side.
	need    linear.Set   // this destination's full position set
	inSets  []linear.Set // expected positions per source rank (owned ∩ need)
	covered int          // sum of inSets lengths: what a clean run unpacks

	// Scratch sub-sets reused across packRange/unpackRange calls for
	// windows narrower than the message (each call's result is consumed
	// synchronously before the next, so one scratch set per direction
	// suffices). A whole-message window uses the plan's own set.
	packSub   linear.Set
	unpackSub linear.Set
}

func (p *linPlan[T]) proto() string { return "linear" }
func (p *linPlan[T]) srcRank() int  { return p.src }
func (p *linPlan[T]) dstRank() int  { return p.dst }
func (p *linPlan[T]) dstLen() int   { return len(p.dstLocal) }

// bind attaches the buffers unchecked: a Linearizer exposes no local
// counts to check against.
func (p *linPlan[T]) bind(src, dst []T) error {
	p.srcLocal, p.dstLocal = src, dst
	return nil
}

// reply books an answer to one destination's request.
func (p *linPlan[T]) reply(req linRequest) {
	p.outDst = append(p.outDst, req.dstRank)
	p.outSets = append(p.outSets, p.owned.Intersect(req.need))
}

func (p *linPlan[T]) sends() int { return len(p.outDst) }

func (p *linPlan[T]) sendOp(i int) pairOp {
	return pairOp{group: p.lay.DstBase + p.outDst[i], rank: p.outDst[i], elems: p.outSets[i].Len()}
}

func (p *linPlan[T]) sendSet(i int) linear.Set { return p.outSets[i] }

// lendSrc is nil: linear replies are gathered through a Linearizer, and a
// receiver has no pair plan to copy one through.
func (p *linPlan[T]) lendSrc() []T { return nil }

func (p *linPlan[T]) packRange(i, elemOff int, out []T) {
	set := p.outSets[i]
	if elemOff != 0 || len(out) != set.Len() {
		p.packSub = set.Slice(elemOff, len(out), p.packSub)
		set = p.packSub
	}
	p.srcLin.Pack(p.src, p.srcLocal, set, out)
	if elemOff == 0 {
		mLinReplies.Inc()
	}
}

func (p *linPlan[T]) recvs() int { return len(p.inSets) }

func (p *linPlan[T]) recvOp(i int) pairOp {
	return pairOp{group: p.lay.SrcBase + i, rank: i, elems: p.inSets[i].Len()}
}

// checkHave validates the position metadata a message's first chunk
// carries: the sender's full reply set, which must equal this
// destination's expected intersection. Chunk element counts are the
// engine's concern.
func (p *linPlan[T]) checkHave(i int, m *xferMsg) error {
	expect := p.inSets[i]
	if !m.have.Equal(expect) {
		return &ElemCountError{Transfer: "linear", DstRank: p.dst, SrcRank: i, Got: m.have.Len(), Want: expect.Len()}
	}
	return nil
}

func (p *linPlan[T]) unpackRange(i, elemOff int, data []T) {
	set := p.inSets[i]
	if elemOff != 0 || len(data) != set.Len() {
		p.unpackSub = set.Slice(elemOff, len(data), p.unpackSub)
		set = p.unpackSub
	}
	p.dstLin.Unpack(p.dst, p.dstLocal, set, data)
}

// copyRange rejects a lent chunk: only a schedule plan lends, so one here
// comes from a sender running a different plan on this tag.
func (p *linPlan[T]) copyRange(i, elemOff int, src []T, n int) error {
	return fmt.Errorf("redist: linear transfer: destination rank %d received a lent chunk from source rank %d", p.dst, i)
}

// lose invalidates the destination positions the dead source owned:
// Unpack a tracking buffer of ones through the lost set, then invalidate
// everywhere a one landed — no new Linearizer surface needed.
func (p *linPlan[T]) lose(i int, out *Outcome, o *TransferOpts) {
	lost := p.inSets[i]
	if lost.Len() == 0 {
		return
	}
	track := make([]T, len(p.dstLocal))
	ones := make([]T, lost.Len())
	for j := range ones {
		ones[j] = 1
	}
	p.dstLin.Unpack(p.dst, track, lost, ones)
	var zero T
	for j, v := range track {
		if v != zero {
			out.Validity.Invalidate(j)
		}
	}
	mElemsInvalidated.Add(uint64(lost.Len()))
	mReplans.Inc()
}

// finish checks total coverage: every needed position arrives exactly
// once. A clean run unpacks every expected reply in full, so what it
// unpacked is the sum of the expected sets. Skipped when a source was
// lost — the validity bitmap already records the shortfall.
func (p *linPlan[T]) finish(lost bool) error {
	if p.dst < 0 || lost {
		return nil
	}
	if want := p.need.Len(); p.covered != want {
		return &ElemCountError{Transfer: "linear", DstRank: p.dst, SrcRank: -1, Got: p.covered, Want: want}
	}
	return nil
}

// The transfer loop. Every exchange in this package — schedule-driven or
// linear, fenced or not, budgeted or not — runs runTransfer below: the
// chunked, credit-controlled protocol, of which an unbudgeted transfer is
// the case with an infinite budget.
//
// Decomposition. Under a MaxBytesInFlight budget B each pairwise message
// is split at element boundaries into chunks of at most B/2 bytes, and
// consecutive chunks are grouped greedily into rounds of at most B/2
// total bytes (a chunk larger than the cap — possible only under
// degenerate budgets smaller than two elements — forms a round of its
// own, so rounds are never empty). Zero-element messages still travel,
// as a single zero-byte chunk, so every expected pairwise message stays
// matched one-to-one with arrivals. With no budget both caps are
// unbounded: one chunk per message, one round per transfer.
//
// Flow control. A budgeted receiver acknowledges every data chunk after
// disposal (unpack, drain or discard — credit is flow control, not
// correctness), and round N+1 is sent only once every chunk of round N
// has been acknowledged. A chunk packed while this rank is owed no
// credit goes out at once; only the round after it is staged, packed
// while its predecessor is in flight — the pipelining overlap — so a
// rank holds at most two rounds of packed buffers and its resident
// packed bytes stay bounded by B. Acks are pooled marker messages on the
// same data tag. An unbudgeted transfer sends no acks and is never owed
// any, so its single round is packed and posted message by message.
//
// Symmetry. Both sides derive the identical chunk decomposition from
// (budget, element size, message element count), so no negotiation
// traffic is needed — which is also why every rank of one transfer must
// pass the SAME MaxBytesInFlight and element type: a receiver that
// derives a different chunk count cannot re-synchronize with its
// sender.
//
// Liveness. Sending and receiving interleave in one event loop per rank
// (a rank blocked waiting for acks must keep consuming its own incoming
// chunks, or two mutually-sending ranks deadlock). A budgeted rank
// receives from any source and acknowledges each chunk on arrival, so one
// slow source never holds up another's credit; it attributes arrivals by
// sender: the comm layer preserves per-pair FIFO order and a plan never
// expects more than one pairwise message from the same peer, so an
// arriving chunk is always the next unconsumed chunk of that peer's
// message. An unbudgeted rank, owed nothing by anyone, receives from the
// next expected peer in plan order — which is what lets back-to-back
// unbudgeted transfers reuse a tag (a fast peer's next message waits in
// its own mailbox slot) and attributes a fenced timeout to one source.
package redist

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
)

var (
	mRoundsSent = obs.Default().Counter("redist.rounds_sent")
	mChunksSent = obs.Default().Counter("redist.chunks_sent")
	mAcksSent   = obs.Default().Counter("redist.acks_sent")
	mAcksRecv   = obs.Default().Counter("redist.acks_recv")
)

// chunkElemCap returns the element capacity of one chunk under a byte
// budget: half the budget, so the staged round plus the in-flight round
// together stay within it. Budgets smaller than two elements degrade to
// element-at-a-time chunks — the bound becomes best-effort. No budget
// means no cap.
func chunkElemCap(budget, esz int) int {
	if budget <= 0 {
		return math.MaxInt
	}
	n := budget / 2 / esz
	if n < 1 {
		n = 1
	}
	return n
}

// chunkCount returns how many chunks a pairwise message of elems
// elements splits into. Empty messages travel as one zero-byte chunk.
func chunkCount(elems, capElems int) int {
	if elems <= capElems {
		return 1
	}
	return (elems-1)/capElems + 1
}

// nextChunkElems returns the element count of the chunk starting at
// element offset done within a message of elems elements.
func nextChunkElems(elems, done, capElems int) int {
	if n := elems - done; n < capElems {
		return n
	}
	return capElems
}

// stagedChunk is one packed, not-yet-sent chunk of the staged round.
type stagedChunk struct {
	m     *xferMsg
	op    int // send-op index, for ack accounting
	group int
	rank  int
}

// recvProgress tracks one expected pairwise message's chunked arrival.
type recvProgress struct {
	group      int
	rank       int
	elems      int
	elemsDone  int
	chunksLeft int
}

// runState is the pooled per-call state of a transfer. The slices keep
// their backing arrays across recycles, so a steady-state transfer
// allocates nothing (guarded by TestExchangeSteadyStateZeroAlloc and
// TestExchangeBudgetedSteadyStateZeroAlloc).
type runState struct {
	staged      []stagedChunk
	pendAck     []int // per send op: chunks sent but not yet acknowledged
	pendingAcks int   // sum of pendAck
	recv        []recvProgress
	recvChunks  int // sum of recv[i].chunksLeft
	// zcWait is the rendezvous of this transfer's zero-copy sends,
	// created on the first lent view so the copying path pays nothing.
	zcWait *sync.WaitGroup
}

const maxFreeRunStates = 64

var runPool = struct {
	mu   sync.Mutex
	free []*runState
}{free: make([]*runState, 0, maxFreeRunStates)}

func getRunState() *runState {
	runPool.mu.Lock()
	if n := len(runPool.free); n > 0 {
		st := runPool.free[n-1]
		runPool.free[n-1] = nil
		runPool.free = runPool.free[:n-1]
		runPool.mu.Unlock()
		return st
	}
	runPool.mu.Unlock()
	return new(runState)
}

// putRunState ends a transfer. Zero-copy sends lent the caller's source
// slice to in-process receivers; the rendezvous holds this rank until
// every lent view has been unpacked and recycled, so the caller may
// mutate its source the moment runTransfer returns — error paths
// included, since receivers recycle every expected message even while
// draining.
func putRunState(st *runState) {
	if st.zcWait != nil {
		st.zcWait.Wait()
		putZCWait(st.zcWait)
	}
	for i := range st.staged {
		st.staged[i] = stagedChunk{}
	}
	*st = runState{staged: st.staged[:0], pendAck: st.pendAck[:0], recv: st.recv[:0]}
	runPool.mu.Lock()
	if len(runPool.free) < maxFreeRunStates {
		runPool.free = append(runPool.free, st)
	}
	runPool.mu.Unlock()
}

// abandon stops expecting the rest of the i'th incoming message.
func (st *runState) abandon(i int) {
	st.recvChunks -= st.recv[i].chunksLeft
	st.recv[i].chunksLeft = 0
}

// sendAck returns one chunk's transfer credit to its sender.
func sendAck(c *comm.Comm, to, tag int, epoch uint64) {
	a := getMsg()
	a.epoch = epoch
	a.ack = true
	c.Send(to, tag, a)
	mAcksSent.Inc()
}

// runTransfer is the transfer loop: the only place in this package that
// sends or receives data messages. One event loop interleaves three
// duties: send progress whenever no chunk is unacknowledged (ship the
// staged round, or pack and post one directly, then stage the next),
// consuming incoming data chunks (acknowledging each when budgeted), and
// consuming acks. Sources never wait for a destination to be ready;
// destinations consume exactly the chunks their plan expects. On error
// the rank keeps draining its remaining expected chunks and acks (with a
// give-up timeout when fenced) so nothing stays queued under dataTag to
// cross-match a later transfer, and drained chunks are still acknowledged
// so live peers are never wedged waiting for credit.
func runTransfer[T Elem, P plan[T]](c *comm.Comm, pl P, dataTag int, f *fenceRun, budget int) error {
	tr := obs.Trace()
	esz := elemSize[T]()
	capElems, roundBytes := chunkElemCap(budget, esz), math.MaxInt
	// Acks pace rounds; an unbounded round has nothing to pace.
	budgeted := capElems < math.MaxInt
	if budgeted {
		roundBytes = max(capElems*esz, budget/2)
	}
	var epoch uint64
	if f != nil {
		epoch = f.entryEpoch
	}

	st := getRunState()
	defer putRunState(st)

	nSend := pl.sends()
	for i := 0; i < nSend; i++ {
		st.pendAck = append(st.pendAck, 0)
	}
	for i, n := 0, pl.recvs(); i < n; i++ {
		op := pl.recvOp(i)
		chunks := chunkCount(op.elems, capElems)
		st.recv = append(st.recv, recvProgress{group: op.group, rank: op.rank, elems: op.elems, chunksLeft: chunks})
		st.recvChunks += chunks
	}
	if f != nil && pl.dstRank() >= 0 {
		f.out.Validity = dad.NewValidity(pl.dstLen())
	}

	var (
		curOp, curOff int // chunking cursor over the send ops
		nextRecv      int // first expectation that may still be open
		firstErr      error
		lost          bool
		discarded     bool
		waited        time.Duration // silence since the last arrival
	)
	// post sends one chunk and, on a budgeted transfer, books the credit
	// its receiver now owes.
	post := func(sc stagedChunk) {
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		elems := sc.m.elems
		c.Send(sc.group, dataTag, sc.m)
		if budgeted {
			st.pendAck[sc.op]++
			st.pendingAcks++
		}
		mMsgsSent.Inc()
		mChunksSent.Inc()
		tr.Span(obs.EvSend, "", pl.srcRank(), sc.rank, int64(elems), start)
	}
	// packNext packs the chunk at the send cursor — or lends it, see lend —
	// and advances the cursor past it and past dead destinations. It
	// reports false once the cursor is exhausted (a strict abort retires
	// it) or the chunk would overflow a round already holding roundSoFar
	// bytes (a lone chunk always fits: roundBytes >= capElems*esz).
	packNext := func(roundSoFar int) (stagedChunk, bool) {
		for curOp < nSend {
			op := pl.sendOp(curOp)
			if f != nil && !f.opts.Membership.IsAlive(op.group) {
				f.noteDown(op.group)
				mSendsSkippedDead.Inc()
				if f.abortOnDeadSend && f.opts.Policy == FailStrict {
					mRankdownAborts.Inc()
					firstErr = &core.ErrRankDown{Rank: op.group, Epoch: f.opts.Membership.Epoch()}
					curOp, curOff = nSend, 0
					break
				}
				curOp, curOff = curOp+1, 0
				continue
			}
			n := nextChunkElems(op.elems, curOff, capElems)
			if roundSoFar+n*esz > roundBytes {
				break
			}
			sc := stagedChunk{op: curOp, group: op.group, rank: op.rank}
			if f == nil && !budgeted {
				sc.m = lend[T](c, pl, curOp, op, st)
			}
			if sc.m == nil {
				start := time.Now()
				sc.m = newMsg[T](epoch, n)
				pl.packRange(curOp, curOff, elemsOf[T](sc.m.data, n))
				mPackNS.ObserveSince(start)
				mElemsPacked.Add(uint64(n))
				tr.Span(obs.EvPack, "", pl.srcRank(), op.rank, int64(n), start)
			}
			if curOff == 0 {
				// Only the opening chunk carries position metadata
				// (the plan-owned full reply set on linear messages).
				sc.m.have = pl.sendSet(curOp)
			}
			mMsgElems.Observe(int64(n))
			if curOff += n; curOff >= op.elems {
				curOp, curOff = curOp+1, 0
			}
			return sc, true
		}
		return stagedChunk{}, false
	}

	for {
		for i := 0; f != nil && i < nSend; i++ {
			// Destinations that died owing acks are forgiven: their
			// chunks were dropped in transit.
			if st.pendAck[i] == 0 {
				continue
			}
			g := pl.sendOp(i).group
			if f.opts.Membership.IsAlive(g) {
				continue
			}
			f.noteDown(g)
			st.pendingAcks -= st.pendAck[i]
			st.pendAck[i] = 0
			if f.abortOnDeadSend && f.opts.Policy == FailStrict && firstErr == nil {
				mRankdownAborts.Inc()
				firstErr = &core.ErrRankDown{Rank: g, Epoch: f.opts.Membership.Epoch()}
			}
		}

		// Send progress, whenever this rank is owed no credit: ship the
		// staged round, or — nothing staged means nothing in flight —
		// post a round chunk by chunk as it is packed; then stage the next
		// round while that one is in flight. Two rounds of at most
		// budget/2 bytes each bound this rank's resident packed bytes by
		// the budget. An unfenced rank keeps sending even after an error:
		// its peers block for exactly the chunks the decomposition
		// promised them.
		if (f == nil || firstErr == nil) && st.pendingAcks == 0 && (len(st.staged) > 0 || curOp < nSend) {
			posted := len(st.staged)
			for i := range st.staged {
				post(st.staged[i])
				st.staged[i] = stagedChunk{}
			}
			st.staged = st.staged[:0]
			if posted == 0 {
				for bytes := 0; ; {
					sc, ok := packNext(bytes)
					if !ok {
						break
					}
					bytes += len(sc.m.data)
					post(sc)
					posted++
				}
			}
			if posted > 0 {
				mRoundsSent.Inc()
			}
			for bytes := 0; ; {
				sc, ok := packNext(bytes)
				if !ok {
					break
				}
				bytes += len(sc.m.data)
				st.staged = append(st.staged, sc)
			}
			continue
		}

		if f != nil {
			// Sources that died owing chunks get the failure policy
			// applied — after this rank's own sends, which owe nothing to
			// what it receives.
			for i := range st.recv {
				rp := &st.recv[i]
				if rp.chunksLeft == 0 || f.opts.Membership.IsAlive(rp.group) {
					continue
				}
				f.noteDown(rp.group)
				if f.opts.Policy == FailStrict {
					if firstErr == nil {
						mRankdownAborts.Inc()
						firstErr = &core.ErrRankDown{Rank: rp.group, Epoch: f.opts.Membership.Epoch()}
					}
				} else {
					// Invalidate the whole pairwise message, chunks already
					// delivered included: validity stays a safe lower bound.
					pl.lose(i, f)
					lost = true
				}
				st.abandon(i)
			}
			if firstErr != nil && !discarded {
				// Fenced abort semantics: unsent rounds are dropped, the
				// cursor is retired, and the loop degrades to draining.
				for i := range st.staged {
					recycle(st.staged[i].m)
					st.staged[i] = stagedChunk{}
				}
				st.staged = st.staged[:0]
				curOp, curOff = nSend, 0
				discarded = true
			}
		}

		if st.recvChunks == 0 && st.pendingAcks == 0 && len(st.staged) == 0 && curOp >= nSend {
			break
		}

		// Receive: budgeted, from anyone (acks and chunks of every source
		// are taken as they come); otherwise from the next expected peer
		// in plan order.
		from := comm.AnySource
		if !budgeted {
			for st.recv[nextRecv].chunksLeft == 0 {
				nextRecv++
			}
			from = st.recv[nextRecv].group
		}
		var payload any
		if f == nil {
			payload, from = c.Recv(from, dataTag)
		} else {
			p, fr, ok := c.RecvTimeout(from, dataTag, f.opts.PollInterval)
			if !ok {
				waited += f.opts.PollInterval
				if f.opts.SuspectAfter > 0 && waited >= f.opts.SuspectAfter {
					// Silence long enough: suspect the awaited peer, or —
					// listening to everyone — every peer still owing this
					// rank chunks or acks. The liveness sweeps apply the
					// policy.
					for i := range st.recv {
						if g := st.recv[i].group; st.recv[i].chunksLeft > 0 && (from == comm.AnySource || from == g) {
							f.opts.Membership.MarkDown(g)
						}
					}
					for i := 0; i < nSend; i++ {
						if st.pendAck[i] > 0 {
							f.opts.Membership.MarkDown(pl.sendOp(i).group)
						}
					}
					waited = 0
				}
				if firstErr != nil && waited >= max(f.opts.SuspectAfter, 10*f.opts.PollInterval) {
					// Draining after an error: give up on silent peers —
					// everyone when listening to everyone, else the one
					// awaited (later sources still get their turn).
					if from == comm.AnySource {
						break
					}
					st.abandon(nextRecv)
					waited = 0
				}
				continue
			}
			payload, from, waited = p, fr, 0
		}

		m, isMsg := payload.(*xferMsg)
		if isMsg && m.ack {
			mAcksRecv.Inc()
			recycle(m)
			credited := false
			for i := 0; i < nSend; i++ {
				if st.pendAck[i] > 0 && pl.sendOp(i).group == from {
					st.pendAck[i]--
					st.pendingAcks--
					credited = true
					break
				}
			}
			if !credited {
				mDrained.Inc() // leftover credit of an earlier aborted transfer
			}
			continue
		}
		// Every consumed data message counts, including discards:
		// mMsgsRecv is "messages taken off the wire".
		mMsgsRecv.Inc()
		if isMsg && f != nil && m.epoch != 0 && m.epoch < f.entryEpoch {
			// Leftover chunk of a pre-failure attempt: discard and keep
			// waiting for the current epoch's. It matches no expectation.
			mStaleEpoch.Inc()
		} else {
			// Attribute to the sender's pairwise message: per-pair FIFO
			// order plus one expected message per peer make this the next
			// chunk.
			ri := nextRecv
			for ri < len(st.recv) && (st.recv[ri].group != from || st.recv[ri].chunksLeft == 0) {
				ri++
			}
			var err error
			switch {
			case ri == len(st.recv):
				err = fmt.Errorf("redist: destination rank %d received unexpected %T from group rank %d", pl.dstRank(), payload, from)
			case !isMsg:
				err = fmt.Errorf("redist: destination rank %d received %T, want transfer message", pl.dstRank(), payload)
			case firstErr == nil:
				err = unpackChunk[T](pl, f, ri, &st.recv[ri], m, capElems, tr)
			}
			if ri < len(st.recv) {
				st.recv[ri].chunksLeft--
				st.recvChunks--
			}
			if firstErr != nil {
				mDrained.Inc()
			} else {
				firstErr = err
			}
		}
		if isMsg {
			// Whatever its fate the chunk is disposed of, and when
			// budgeted its credit returned: a stale or failing sender may
			// be draining on flow control, and credit is never a
			// correctness input.
			recycle(m)
			if budgeted {
				sendAck(c, from, dataTag, epoch)
			}
		}
	}

	if firstErr == nil {
		firstErr = pl.finish(lost)
	}
	if firstErr != nil {
		mErrors.Inc()
		return firstErr
	}
	if f != nil && pl.dstRank() >= 0 && f.opts.Desc != nil && !f.out.Validity.AllValid() {
		f.opts.Desc.SetValidity(pl.dstRank(), f.out.Validity)
	}
	// One count per side this rank played, on success only.
	if pl.srcRank() >= 0 {
		mTransfers.Inc()
	}
	if pl.dstRank() >= 0 {
		mTransfers.Inc()
	}
	return nil
}

// lend returns the i'th outgoing message as a view of the caller's own
// source slice — zero pack, zero copy — or nil when it must be packed.
// The caller offers only whole messages of unfenced, unbudgeted
// transfers; they are lent only to in-process peers (a mailbox delivers
// the same slice) and never to self: packing keeps aliased src/dst safe
// there.
func lend[T Elem, P plan[T]](c *comm.Comm, pl P, i int, op pairOp, st *runState) *xferMsg {
	view := pl.sendView(i)
	if view == nil {
		return nil
	}
	if op.group == c.Rank() || !c.DeliverableLocal(op.group) {
		mZeroCopyMisses.Inc()
		return nil
	}
	if st.zcWait == nil {
		st.zcWait = getZCWait()
	}
	st.zcWait.Add(1)
	m := getMsg()
	m.kind = kindOf[T]()
	m.elems = op.elems
	m.data = view
	m.done = st.zcWait
	mZeroCopyHits.Inc()
	mElemsLent.Add(uint64(op.elems))
	return m
}

// unpackChunk validates one arrived chunk against the open expectation
// rp (the ri'th) and unpacks it into place.
func unpackChunk[T Elem, P plan[T]](pl P, f *fenceRun, ri int, rp *recvProgress, m *xferMsg, capElems int, tr *obs.Tracer) error {
	if f != nil && m.epoch > f.entryEpoch {
		// The peer already re-planned into a NEWER epoch than this rank
		// entered at. Consuming its chunks against our stale plan would
		// corrupt data silently whenever the element counts happen to
		// match; reject with a typed error so the caller re-enters at
		// the current epoch.
		mStaleLocal.Inc()
		return &StaleLocalEpochError{Transfer: pl.proto(), Rank: pl.dstRank(), Peer: rp.rank, Local: f.entryEpoch, Remote: m.epoch}
	}
	if want := kindOf[T](); m.kind != want {
		return &ElemKindError{Transfer: pl.proto(), DstRank: pl.dstRank(), SrcRank: rp.rank, Got: m.kind, Want: want}
	}
	expect := nextChunkElems(rp.elems, rp.elemsDone, capElems)
	if m.elems != expect || len(m.data) != m.elems*elemSize[T]() {
		return &ElemCountError{Transfer: pl.proto(), DstRank: pl.dstRank(), SrcRank: rp.rank, Got: m.elems, Want: expect}
	}
	if rp.elemsDone == 0 {
		if err := pl.checkHave(ri, m); err != nil {
			return err
		}
	}
	start := time.Now()
	pl.unpackRange(ri, rp.elemsDone, elemsOf[T](m.data, m.elems))
	mUnpackNS.ObserveSince(start)
	mElemsUnpack.Add(uint64(m.elems))
	tr.Span(obs.EvUnpack, "", pl.dstRank(), rp.rank, int64(m.elems), start)
	rp.elemsDone += m.elems
	return nil
}

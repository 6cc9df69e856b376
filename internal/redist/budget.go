// The transfer loop. Every Transfer — fenced or not, budgeted or not —
// runs Transfer.run below: the chunked, credit-controlled protocol, of
// which an unbudgeted transfer is the case with an infinite budget.
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
// Flow control. A budgeted receiver acknowledges every packed data chunk
// after disposal (unpack, drain or discard — credit is flow control, not
// correctness), and round N+1 is sent only once every packed chunk of
// round N has been acknowledged. A chunk packed while this rank is owed no
// credit goes out at once; only the round after it is staged, packed
// while its predecessor is in flight — the pipelining overlap — so a
// rank holds at most two rounds of packed buffers and its resident
// packed bytes stay bounded by B. Acks are pooled marker messages on the
// same data tag. An unbudgeted transfer sends no acks and is never owed
// any, so its single round is packed and posted message by message.
//
// Lending. A budgeted transfer, or one with ZeroCopyLocal set, lends the
// chunks bound for an in-process rank instead of packing them: the chunk
// carries the caller's whole source buffer and its window of the pair's
// packed order, and the receiver copies that window straight into its
// destination — one copy where packing costs two. A lent chunk holds no
// pooled buffer, so it is owed no credit: its sender books none and its
// receiver sends none back, both knowing it by the lent mark the chunk
// carries. The decomposition, the epochs and the checks are the packed
// chunk's. What lending costs is the rendezvous: Run does not return
// until every lent chunk has been copied or discarded by its receiver
// (see awaitLent), and fenced, a destination declared dead has its chunks
// revoked rather than waited on — atomically, so that a receiver either
// takes a chunk before it copies or finds it revoked and never reads it.
//
// Symmetry. Both sides derive the identical chunk decomposition from
// (budget, element size, message element count), so no negotiation
// traffic is needed — which is also why every rank of one transfer must
// pass the SAME MaxBytesInFlight and element type: a receiver that
// derives a different chunk count cannot re-synchronize with its
// sender.
//
// Ready tokens (remotelend.go) travel on the data tag like acks. The send
// cursor holds at a posted message until its token has come: an
// unbudgeted rank takes it from that destination before any data receive,
// a budgeted one as it comes.
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
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
	"mxn/internal/wire"
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

// lentChunk is one chunk a run lent, and the group rank it was lent to.
type lentChunk struct {
	m     *xferMsg
	group int
}

// recvProgress tracks one expected pairwise message's chunked arrival.
// The first four fields are fixed at New; the last three are reset by Run.
type recvProgress struct {
	group      int
	rank       int
	elems      int
	chunks     int
	elemsDone  int
	chunksLeft int
	lost       bool // FailRedistribute has invalidated it
}

// abandon stops expecting the rest of the i'th incoming message.
func (t *Transfer[T]) abandon(i int) {
	t.recvChunks -= t.recv[i].chunksLeft
	t.recv[i].chunksLeft = 0
}

// lose applies FailRedistribute to the i'th incoming message, once: it
// invalidates the elements the dead pair would have delivered, block by
// block, and (once per run) re-plans against the survivors, invalidating
// the schedule cache entry so later transfers rebuild from current
// templates.
func (t *Transfer[T]) lose(i int) {
	rp := &t.recv[i]
	if rp.lost {
		return
	}
	rp.lost = true
	pp, out, o := t.recvPair(i), t.out, &t.opts
	for _, run := range pp.Runs {
		for k := 0; k < run.Count; k++ {
			out.Validity.InvalidateRange(run.DstOff+k*run.DstStride, run.N)
		}
	}
	mElemsInvalidated.Add(uint64(pp.Elems))
	if out.Replanned == nil {
		start := time.Now()
		if o.Cache != nil {
			o.Cache.Invalidate(t.s.Src, t.s.Dst)
		}
		m := o.Membership
		out.Replanned = schedule.Restrict(t.s,
			func(r int) bool { return m.IsAlive(t.lay.SrcBase + r) },
			func(r int) bool { return m.IsAlive(t.lay.DstBase + r) })
		mReplanNS.ObserveSince(start)
		mReplans.Inc()
	}
}

// sendAck returns one chunk's transfer credit to its sender.
func sendAck(c *comm.Comm, to, tag int, epoch uint64) {
	a := getMsg()
	a.epoch = epoch
	a.mark = markAck
	c.Send(to, tag, a)
	mAcksSent.Inc()
}

// run is the transfer loop: the only place in this package that sends or
// receives data messages. One event loop interleaves three duties: send
// progress whenever no chunk is unacknowledged (ship the staged round, or
// pack and post one directly, then stage the next), consuming incoming
// data chunks (acknowledging each when budgeted), and consuming acks.
// Sources never wait for a destination to be ready; destinations consume
// exactly the chunks their plan expects. On error the rank keeps draining
// its remaining expected chunks and acks (with a give-up timeout when
// fenced) so nothing stays queued under the data tag to cross-match a
// later transfer, and drained chunks are still acknowledged so live peers
// are never wedged waiting for credit.
func (t *Transfer[T]) run() error {
	tr := obs.Trace()
	c, fenced := t.c, t.out != nil
	esz := elemSize[T]()

	nSend := t.sends()
	t.staged, t.pendAck, t.pendingAcks, t.recvChunks = t.staged[:0], t.pendAck[:0], 0, 0
	for i := 0; i < nSend; i++ {
		t.pendAck = append(t.pendAck, 0)
	}
	for i := range t.recv {
		rp := &t.recv[i]
		rp.elemsDone, rp.chunksLeft, rp.lost = 0, rp.chunks, false
		t.recvChunks += rp.chunks
	}
	if fenced && t.dst >= 0 {
		t.out.Validity = dad.NewValidity(len(t.dstLocal))
	}
	// Receives are posted, and their ready tokens sent, before anything
	// else: no rank waits before its tokens are on their way.
	if t.posts != nil {
		t.postRecvs()
	}

	var (
		curOp, curOff int // chunking cursor over the send ops
		nextRecv      int // first expectation that may still be open
		firstErr      error
		discarded     bool
		waited        time.Duration // silence since the last arrival
	)
	// post sends one chunk and, on a budgeted transfer, books the credit
	// its receiver now owes for a packed one.
	post := func(sc stagedChunk) {
		var start time.Time
		if tr != nil {
			start = time.Now()
		}
		// Only an in-process lent chunk owes no credit: one that crosses a
		// connection arrives as any other remote chunk does.
		elems, lent := sc.m.elems, sc.m.lender != nil && sc.m.segs == nil
		c.Send(sc.group, t.tag, sc.m)
		if t.budgeted && !lent {
			t.pendAck[sc.op]++
			t.pendingAcks++
		}
		mMsgsSent.Inc()
		mChunksSent.Inc()
		tr.Span(obs.EvSend, "", t.src, sc.rank, int64(elems), start)
	}
	// packNext packs the chunk at the send cursor — or lends it to an
	// in-process rank, see lend — and advances the cursor past it and past
	// dead destinations. It reports false once the cursor is exhausted (a
	// strict abort retires it) or the chunk would overflow a round already
	// holding roundSoFar bytes (a lone chunk always fits: roundBytes >=
	// capElems*esz).
	packNext := func(roundSoFar int) (stagedChunk, bool) {
		for curOp < nSend {
			pp := t.sendPair(curOp)
			group := t.lay.DstBase + pp.DstRank
			if fenced && !t.opts.Membership.IsAlive(group) {
				t.noteDown(group)
				mSendsSkippedDead.Inc()
				if t.opts.Policy == FailStrict {
					mRankdownAborts.Inc()
					firstErr = &core.ErrRankDown{Rank: group, Epoch: t.opts.Membership.Epoch()}
					curOp, curOff = nSend, 0
					break
				}
				curOp, curOff = curOp+1, 0
				continue
			}
			n := nextChunkElems(pp.Elems, curOff, t.capElems)
			if roundSoFar+n*esz > t.roundBytes || t.awaits(curOp) {
				break
			}
			if t.ready != nil && t.ready[curOp] > 1 {
				t.ready[curOp]--
			}
			sc := stagedChunk{op: curOp, group: group, rank: pp.DstRank}
			switch {
			case t.lendView != nil && t.lendLocal && c.DeliverableLocal(group):
				sc.m = t.lend(group, curOff, n)
			case t.lendView != nil && n*esz >= wire.PlaceMin && !c.DeliverableLocal(group) &&
				runBlockBytes(pp, true, esz) >= t.lendMin:
				sc.m = t.lendRemote(curOp, group, curOff, n)
			default:
				start := time.Now()
				sc.m = newMsg[T](t.epoch, n)
				schedule.PackSliceRange(pp, t.srcLocal, elemsOf[T](sc.m.data, n), curOff)
				mPackNS.ObserveSince(start)
				mElemsPacked.Add(uint64(n))
				tr.Span(obs.EvPack, "", t.src, pp.DstRank, int64(n), start)
			}
			mMsgElems.Observe(int64(n))
			if curOff += n; curOff >= pp.Elems {
				curOp, curOff = curOp+1, 0
			}
			return sc, true
		}
		return stagedChunk{}, false
	}

	for {
		for i := 0; fenced && i < nSend; i++ {
			// Destinations that died owing acks are forgiven: their
			// chunks were dropped in transit.
			if t.pendAck[i] == 0 {
				continue
			}
			g := t.sendGroup(i)
			if t.opts.Membership.IsAlive(g) {
				continue
			}
			t.noteDown(g)
			t.pendingAcks -= t.pendAck[i]
			t.pendAck[i] = 0
			if t.opts.Policy == FailStrict && firstErr == nil {
				mRankdownAborts.Inc()
				firstErr = &core.ErrRankDown{Rank: g, Epoch: t.opts.Membership.Epoch()}
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
		held := curOp < nSend && t.awaits(curOp)
		if (!fenced || firstErr == nil) && t.pendingAcks == 0 && (len(t.staged) > 0 || (curOp < nSend && !held)) {
			// The round leaves as one batch per remote peer: held while it
			// is posted, flushed once it is — before the next round is
			// staged, so the peer unpacks while this rank packs.
			c.Cork()
			posted := len(t.staged)
			for i := range t.staged {
				post(t.staged[i])
				t.staged[i] = stagedChunk{}
			}
			t.staged = t.staged[:0]
			if posted == 0 {
				for bytes := 0; ; {
					sc, ok := packNext(bytes)
					if !ok {
						break
					}
					bytes += sc.m.elems * esz
					post(sc)
					posted++
				}
			}
			c.Flush()
			if posted > 0 {
				mRoundsSent.Inc()
			}
			for bytes := 0; ; {
				sc, ok := packNext(bytes)
				if !ok {
					break
				}
				bytes += sc.m.elems * esz
				t.staged = append(t.staged, sc)
			}
			continue
		}

		if fenced {
			// Sources that died owing chunks get the failure policy
			// applied — after this rank's own sends, which owe nothing to
			// what it receives.
			for i := range t.recv {
				rp := &t.recv[i]
				if rp.chunksLeft == 0 || t.opts.Membership.IsAlive(rp.group) {
					continue
				}
				t.noteDown(rp.group)
				if t.opts.Policy == FailStrict {
					if firstErr == nil {
						mRankdownAborts.Inc()
						firstErr = &core.ErrRankDown{Rank: rp.group, Epoch: t.opts.Membership.Epoch()}
					}
				} else {
					// Invalidate the whole pairwise message, chunks already
					// delivered included: validity stays a safe lower bound.
					t.lose(i)
				}
				t.abandon(i)
			}
			if firstErr != nil && !discarded {
				// Fenced abort semantics: unsent rounds are dropped, the
				// cursor is retired, and the loop degrades to draining.
				t.dropStaged()
				curOp, curOff, held = nSend, 0, false
				discarded = true
			}
		}

		if t.recvChunks == 0 && t.pendingAcks == 0 && len(t.staged) == 0 && curOp >= nSend {
			break
		}

		// Receive: budgeted, from anyone (tokens, acks and chunks of every
		// source are taken as they come); otherwise the held message's
		// token from its destination, or else from the next expected peer
		// in plan order.
		from := comm.AnySource
		switch {
		case t.budgeted:
		case held:
			from = t.sendGroup(curOp)
		default:
			for t.recv[nextRecv].chunksLeft == 0 {
				nextRecv++
			}
			from = t.recv[nextRecv].group
		}
		var payload any
		if !fenced {
			// A lost connection ends the run: nothing more will come.
			p, fr, _, err := c.RecvOrFail(from, t.tag, 0)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("redist: rank %d: connection lost: %w", c.Rank(), err)
				}
				break
			}
			payload, from = p, fr
		} else {
			p, fr, ok := c.RecvTimeout(from, t.tag, t.opts.PollInterval)
			if !ok {
				t.markLost()
				waited += t.opts.PollInterval
				if t.opts.SuspectAfter > 0 && waited >= t.opts.SuspectAfter {
					// Silence long enough: suspect the awaited peer, or —
					// listening to everyone — every peer still owing this
					// rank chunks or acks. The liveness sweeps apply the
					// policy.
					for i := range t.recv {
						if g := t.recv[i].group; t.recv[i].chunksLeft > 0 && (from == comm.AnySource || from == g) {
							t.opts.Membership.MarkDown(g)
						}
					}
					for i := 0; i < nSend; i++ {
						if g := t.sendGroup(i); t.pendAck[i] > 0 || (t.awaits(i) && (from == comm.AnySource || from == g)) {
							t.opts.Membership.MarkDown(g)
						}
					}
					waited = 0
				}
				if firstErr != nil && waited >= max(t.opts.SuspectAfter, 10*t.opts.PollInterval) {
					// Draining after an error: give up on silent peers —
					// everyone when listening to everyone, else the one
					// awaited (later sources still get their turn).
					if from == comm.AnySource {
						break
					}
					t.abandon(nextRecv)
					waited = 0
				}
				continue
			}
			payload, from, waited = p, fr, 0
		}

		m, isMsg := payload.(*xferMsg)
		if isMsg && m.mark == markReady {
			mReadyRecv.Inc()
			switch {
			case fenced && m.epoch < t.epoch:
				mStaleEpoch.Inc()
			case !t.takeReady(from):
				mDrained.Inc() // a leftover of an earlier aborted transfer
			}
			recycle(m)
			continue
		}
		if isMsg && m.mark == markAck {
			mAcksRecv.Inc()
			recycle(m)
			credited := false
			for i := 0; i < nSend; i++ {
				if t.pendAck[i] > 0 && t.sendGroup(i) == from {
					t.pendAck[i]--
					t.pendingAcks--
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
		if isMsg && fenced && m.epoch != 0 && m.epoch < t.epoch {
			// Leftover chunk of a pre-failure attempt: discard and keep
			// waiting for the current epoch's. It matches no expectation.
			mStaleEpoch.Inc()
		} else {
			// Attribute to the sender's pairwise message: per-pair FIFO
			// order plus one expected message per peer make this the next
			// chunk.
			ri := nextRecv
			for ri < len(t.recv) && (t.recv[ri].group != from || t.recv[ri].chunksLeft == 0) {
				ri++
			}
			// A chunk of a posted message ends the posting first: arriving
			// unplaced, it is unpacked over the whole region, and no frame
			// may still be landing there meanwhile.
			t.withdraw(ri)
			var err error
			switch {
			case ri == len(t.recv):
				err = fmt.Errorf("redist: destination rank %d received unexpected %T from group rank %d", t.dst, payload, from)
			case !isMsg:
				err = fmt.Errorf("redist: destination rank %d received %T, want transfer message", t.dst, payload)
			case firstErr == nil:
				err = t.unpackChunk(ri, m, tr)
			}
			if ri < len(t.recv) {
				t.recv[ri].chunksLeft--
				t.recvChunks--
			}
			if firstErr != nil {
				mDrained.Inc()
			} else {
				firstErr = err
			}
		}
		if isMsg {
			// Whatever its fate the chunk is disposed of, and when
			// budgeted a packed chunk's credit returned: a stale or
			// failing sender may be draining on flow control, and credit
			// is never a correctness input.
			lent := m.lender != nil
			recycle(m)
			if t.budgeted && !lent {
				sendAck(c, from, t.tag, t.epoch)
			}
		}
	}

	for i := range t.posts {
		t.withdraw(i)
	}
	t.dropStaged() // a lost connection leaves a round unsent
	t.awaitLent(&firstErr)
	if t.arenaTaken {
		putSegs(t.segArena)
		t.segArena, t.arenaTaken = nil, false
	}
	if firstErr != nil {
		mErrors.Inc()
		return firstErr
	}
	if fenced && t.dst >= 0 && t.opts.Desc != nil && !t.out.Validity.AllValid() {
		t.opts.Desc.SetValidity(t.dst, t.out.Validity)
	}
	// One count per side this rank played, on success only.
	if t.src >= 0 {
		mTransfers.Inc()
	}
	if t.dst >= 0 {
		mTransfers.Inc()
	}
	return nil
}

// markLost is a fenced rank's reading of a lost ConnectPeer binding: comm
// kills the ranks behind it, and markLost marks down in the membership
// every one this rank still waits on — for chunks, acks, a ready token or
// a lent chunk — so that the liveness sweeps apply the policy, as they
// would to a rank the membership declared dead itself. Without it, and
// with SuspectAfter 0, the rank would poll for them forever.
func (t *Transfer[T]) markLost() {
	c, m := t.c, t.opts.Membership
	if c.PeerErr() == nil {
		return
	}
	down := func(g int) {
		if !c.Alive(g) {
			m.MarkDown(g)
		}
	}
	for i := range t.recv {
		if t.recv[i].chunksLeft > 0 {
			down(t.recv[i].group)
		}
	}
	for i := range t.pendAck {
		if t.pendAck[i] > 0 || t.awaits(i) {
			down(t.sendGroup(i))
		}
	}
	for _, lc := range t.lent {
		if lc.m.state.Load() == chunkLent {
			down(lc.group)
		}
	}
}

// dropStaged recycles the staged round, unsent.
func (t *Transfer[T]) dropStaged() {
	for i := range t.staged {
		recycle(t.staged[i].m)
		t.staged[i] = stagedChunk{}
	}
	t.staged = t.staged[:0]
}

// lend makes the chunk [off, off+n) of the current send op, bound for
// group rank group, a lent chunk: the run's whole source buffer, which the
// receiver copies the window out of, booked on the run's rendezvous.
func (t *Transfer[T]) lend(group, off, n int) *xferMsg {
	m := getMsg()
	m.epoch = t.epoch
	m.kind = kindOf[T]()
	m.elems = n
	m.data = t.lendView
	m.off = off
	m.lender = &t.zc
	m.state.Store(chunkLent)
	t.zc.left.Add(1)
	t.lent = append(t.lent, lentChunk{m: m, group: group})
	mZeroCopyHits.Inc()
	mElemsLent.Add(uint64(n))
	return m
}

// awaitLent is the rendezvous of the run's lent chunks: it returns once
// every one has been copied or discarded by its receiver, dropped by
// comm, or revoked, and then pools them again. Unfenced, it waits, unless
// a connection of the group is lost: then it gives up on every chunk.
// Fenced, it polls the membership as the loop does: the chunks still
// queued for a destination declared dead are revoked instead of waited
// on — under FailStrict an abort, as a dead destination owing acks is —
// a holder killed with a lost binding is marked down (markLost), a
// destination that holds chunks through SuspectAfter of silence is
// marked down, and a rank draining after an error gives up on silent
// holders after the drain timeout by revoking what they hold.
func (t *Transfer[T]) awaitLent(firstErr *error) {
	z, o := &t.zc, &t.opts
	var waited time.Duration // silence since the last chunk was released
	for left := z.left.Load(); left > 0; left = z.left.Load() {
		if !z.sleep(o.PollInterval) {
			waited += o.PollInterval
		}
		if z.left.Load() < left {
			waited = 0
		}
		suspect, giveUp := false, false
		if t.out == nil {
			err := t.c.PeerErr()
			if err == nil {
				continue
			}
			if *firstErr == nil {
				*firstErr = fmt.Errorf("redist: rank %d: connection lost: %w", t.c.Rank(), err)
			}
			giveUp = true
		} else {
			t.markLost()
			suspect = o.SuspectAfter > 0 && waited >= o.SuspectAfter
			giveUp = *firstErr != nil && waited >= max(o.SuspectAfter, 10*o.PollInterval)
		}
		for _, lc := range t.lent {
			if lc.m.state.Load() != chunkLent {
				continue
			}
			if suspect {
				o.Membership.MarkDown(lc.group)
			}
			dead := t.out != nil && !o.Membership.IsAlive(lc.group)
			if !(dead || giveUp) {
				continue
			}
			if lc.m.segs != nil {
				// A remote chunk's views are the connection's to give back:
				// it copies them and releases the chunk (session.Reclaim).
				if !t.c.Reclaim(lc.group, lc.m) {
					continue
				}
			} else if lc.m.state.CompareAndSwap(chunkLent, chunkRevoked) {
				z.release()
			} else {
				continue
			}
			if dead {
				t.noteDown(lc.group)
				if o.Policy == FailStrict && *firstErr == nil {
					mRankdownAborts.Inc()
					*firstErr = &core.ErrRankDown{Rank: lc.group, Epoch: o.Membership.Epoch()}
				}
			}
		}
		if suspect {
			waited = 0
		}
	}
	for i, lc := range t.lent {
		if lc.m.state.Load() != chunkRevoked {
			*lc.m = xferMsg{}
			putMsg(lc.m)
		}
		t.lent[i] = lentChunk{}
	}
	t.lent = t.lent[:0]
}

// unpackChunk validates one arrived chunk against the ri'th open
// expectation and unpacks it into place.
func (t *Transfer[T]) unpackChunk(ri int, m *xferMsg, tr *obs.Tracer) error {
	rp := &t.recv[ri]
	if t.out != nil && m.epoch > t.epoch {
		// The peer already re-planned into a NEWER epoch than this rank
		// entered at. Consuming its chunks against our stale plan would
		// corrupt data silently whenever the element counts happen to
		// match; reject with a typed error so the caller re-enters at
		// the current epoch.
		mStaleLocal.Inc()
		return &StaleLocalEpochError{Rank: t.dst, Peer: rp.rank, Local: t.epoch, Remote: m.epoch}
	}
	if want := kindOf[T](); m.kind != want {
		return &ElemKindError{DstRank: t.dst, SrcRank: rp.rank, Got: m.kind, Want: want}
	}
	esz, lent := elemSize[T](), m.lender != nil
	expect := nextChunkElems(rp.elems, rp.elemsDone, t.capElems)
	if m.elems != expect || (lent && m.off != rp.elemsDone) || (!lent && len(m.data)+m.placedBytes != m.elems*esz) {
		return &ElemCountError{DstRank: t.dst, SrcRank: rp.rank, Got: m.elems, Want: expect}
	}
	pp, data := t.recvPair(ri), elemsOf[T](m.data, len(m.data)/esz)
	start := time.Now()
	switch {
	case m.placedBytes > 0:
		// A placed chunk is in its destination already.
	case !lent:
		schedule.UnpackSliceRange(pp, t.dstLocal, data, rp.elemsDone)
	case !m.take():
		return t.revoked(ri, m)
	case len(data) != t.s.Src.LocalCount(pp.SrcRank):
		// A lent chunk is its sender's whole source buffer: check it
		// against the source template, the one thing a packed chunk's
		// length would have told.
		return &ElemCountError{DstRank: t.dst, SrcRank: rp.rank, Got: len(data), Want: t.s.Src.LocalCount(pp.SrcRank)}
	default:
		schedule.CopySliceRange(pp, data, t.dstLocal, rp.elemsDone, m.elems)
	}
	mUnpackNS.ObserveSince(start)
	mElemsUnpack.Add(uint64(m.elems))
	tr.Span(obs.EvUnpack, "", t.dst, rp.rank, int64(m.elems), start)
	rp.elemsDone += m.elems
	return nil
}

// revoked settles a lent chunk its sender took back after declaring this
// rank dead: under the fencing policy the chunk is lost, as one from a
// dead source is, and its data is never read.
func (t *Transfer[T]) revoked(ri int, m *xferMsg) error {
	me := t.c.Rank()
	if t.out == nil { // unfenced, only a lost connection revokes
		return fmt.Errorf("redist: destination rank %d: lent chunk revoked after a lost connection", t.dst)
	}
	t.noteDown(me)
	if t.opts.Policy == FailStrict {
		mRankdownAborts.Inc()
		return &core.ErrRankDown{Rank: me, Epoch: t.opts.Membership.Epoch()}
	}
	t.lose(ri)
	t.recv[ri].elemsDone += m.elems
	return nil
}

package redist

import (
	"errors"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// Regression: a FailStrict source-side abort on a dead destination used to
// return *core.ErrRankDown before entering the receive phase. A rank that
// is both a source and a destination then left its peers' already-posted
// messages queued under dataTag, and the next transfer on the same tag
// consumed them as its own whenever the element counts matched — silent
// corruption, not even an error. The abort must run the receive phase in
// drain mode (with the usual give-up timeout) before returning.
func TestFencedStrictSendAbortDrainsReceives(t *testing.T) {
	// Group ranks: 0 = source rank 0; 1 = source rank 1 AND destination
	// rank 0; 2 = destination rank 1, dead. Aligned Block→Block, so the
	// pairs are 0→0 and 1→1: group 1's send hits the dead rank while
	// group 0's message to it is already queued.
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cs := comm.NewWorld(3).Comms()
	mem := core.NewMembership(3)
	mem.MarkDown(2)
	lay := Layout{SrcBase: 0, DstBase: 1}
	fo := TransferOpts{Membership: mem, Policy: FailStrict, PollInterval: time.Millisecond}
	srcLocals := fillByGlobal(src)

	// Group 0 is a pure source with a live destination: posts and returns.
	if _, err := xfer(cs[0], s, lay, srcLocals[0], nil, 0, fo); err != nil {
		t.Fatalf("pure source: %v", err)
	}
	// Group 1 aborts on its dead destination but must still drain the
	// message group 0 just posted.
	dl := make([]float64, dst.LocalCount(0))
	_, err = xfer(cs[1], s, lay, srcLocals[1], dl, 0, fo)
	var down *core.ErrRankDown
	if !errors.As(err, &down) {
		t.Fatalf("abort: err = %v, want *core.ErrRankDown", err)
	}
	if down.Rank != 2 {
		t.Errorf("abort blamed rank %d, want 2", down.Rank)
	}

	// Transfer 2 reuses tag 0 between groups 0 and 1. Its single pairwise
	// message carries 4 elements — the same count as transfer 1's
	// leftover, so without the drain this consumes stale data with no
	// error at all.
	src2 := tpl(t, []int{4}, dad.BlockAxis(1))
	dst2 := tpl(t, []int{4}, dad.BlockAxis(1))
	s2, err := schedule.Build(src2, dst2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{100, 101, 102, 103}
	if _, err := xfer(cs[0], s2, lay, want, nil, 0, TransferOpts{}); err != nil {
		t.Fatalf("transfer 2 source: %v", err)
	}
	dl2 := make([]float64, 4)
	if _, err := xfer(cs[1], s2, lay, nil, dl2, 0, TransferOpts{}); err != nil {
		t.Fatalf("transfer 2 destination: %v", err)
	}
	for i := range want {
		if dl2[i] != want[i] {
			t.Fatalf("transfer 2 got %v, want %v: transfer 1's abort left its messages queued", dl2, want)
		}
	}
}

// Regression: the fenced epoch check only rejected messages OLDER than the
// receiver's entry epoch. A message stamped with a NEWER epoch means the
// peer has already re-planned past a failure this rank has not observed
// yet — consuming it against the stale local plan corrupts data silently
// whenever the element counts happen to match. It must surface as a typed
// *StaleLocalEpochError instead.
func TestFencedRejectsFutureEpoch(t *testing.T) {
	src := tpl(t, []int{4}, dad.BlockAxis(1))
	dst := tpl(t, []int{4}, dad.BlockAxis(1))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	lay := Layout{SrcBase: 0, DstBase: 1}

	checkErr := func(t *testing.T, err error, rank, peer int) {
		t.Helper()
		var sle *StaleLocalEpochError
		if !errors.As(err, &sle) {
			t.Fatalf("err = %v, want *StaleLocalEpochError", err)
		}
		if sle.Rank != rank || sle.Peer != peer {
			t.Errorf("error attribution = %+v, want Rank=%d Peer=%d", sle, rank, peer)
		}
		if sle.Local != 1 || sle.Remote != 2 {
			t.Errorf("epochs = local %d remote %d, want 1 and 2", sle.Local, sle.Remote)
		}
	}

	t.Run("exchange", func(t *testing.T) {
		cs := comm.NewWorld(2).Comms()
		mem := core.NewMembership(2) // epoch 1; receiver enters here
		fut := newMsg[float64](2, 4) // a peer one epoch ahead
		for i := range elemsOf[float64](fut.data, 4) {
			elemsOf[float64](fut.data, 4)[i] = -1
		}
		cs[0].Send(1, 0, fut)

		dl := []float64{-5, -5, -5, -5}
		fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond}
		_, err := xfer(cs[1], s, lay, nil, dl, 0, fo)
		checkErr(t, err, 0, 0)
		for _, v := range dl {
			if v != -5 {
				t.Fatalf("destination buffer modified by future-epoch message: %v", dl)
			}
		}
	})

	t.Run("exchange-budgeted", func(t *testing.T) {
		cs := comm.NewWorld(2).Comms()
		mem := core.NewMembership(2)
		// Budget 32 → 2-element chunks; inject the first chunk of a
		// future-epoch round.
		fut := newMsg[float64](2, 2)
		cs[0].Send(1, 0, fut)

		dl := []float64{-5, -5, -5, -5}
		fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond, MaxBytesInFlight: 32}
		_, err := xfer(cs[1], s, lay, nil, dl, 0, fo)
		checkErr(t, err, 0, 0)
		for _, v := range dl {
			if v != -5 {
				t.Fatalf("destination buffer modified by future-epoch chunk: %v", dl)
			}
		}
	})

	t.Run("linear", func(t *testing.T) {
		// A linearization lowered to a schedule fences its data chunks
		// exactly as a built schedule does.
		srcLin := schedule.NewRowMajor(src)
		dstLin := schedule.NewRowMajor(dst)
		cs := comm.NewWorld(2).Comms()
		mem := core.NewMembership(2)
		cs[0].Send(1, 0, newMsg[float64](2, 4))

		dl := []float64{-5, -5, -5, -5}
		fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond}
		_, err := xferLinear(cs[1], srcLin, dstLin, lay, nil, dl, 0, fo)
		checkErr(t, err, 0, 0)
		for _, v := range dl {
			if v != -5 {
				t.Fatalf("destination buffer modified by future-epoch message: %v", dl)
			}
		}
	})
}

// Metric consistency: mMsgsRecv means "messages taken off the wire" on
// every path — fenced and unfenced count at the same point, and discarded
// stale messages are counted (plus their own discard counter) instead of
// bypassing accounting.
func TestReceiveMetricsConsistent(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.CyclicAxis(2))

	t.Run("unfenced-clean", func(t *testing.T) {
		sent0, recv0 := mMsgsSent.Value(), mMsgsRecv.Value()
		got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, 0, false, []int{0, 1, 2, 3})
		verify(t, dst, got)
		dSent, dRecv := mMsgsSent.Value()-sent0, mMsgsRecv.Value()-recv0
		if dSent != 4 || dRecv != 4 {
			t.Errorf("clean transfer: sent %d recv %d, want 4 and 4", dSent, dRecv)
		}
	})

	t.Run("fenced-clean", func(t *testing.T) {
		sent0, recv0 := mMsgsSent.Value(), mMsgsRecv.Value()
		got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, 0, true, []int{0, 1, 2, 3})
		verify(t, dst, got)
		dSent, dRecv := mMsgsSent.Value()-sent0, mMsgsRecv.Value()-recv0
		if dSent != 4 || dRecv != 4 {
			t.Errorf("clean fenced transfer: sent %d recv %d, want 4 and 4", dSent, dRecv)
		}
	})

	t.Run("stale-discard-counted", func(t *testing.T) {
		// One stale injected message + one real message: both come off
		// the wire, one is discarded.
		src1 := tpl(t, []int{4}, dad.BlockAxis(1))
		dst1 := tpl(t, []int{4}, dad.BlockAxis(1))
		s, err := schedule.Build(src1, dst1)
		if err != nil {
			t.Fatal(err)
		}
		cs := comm.NewWorld(3).Comms()
		mem := core.NewMembership(3)
		mem.MarkDown(2) // epoch 2

		stale := newMsg[float64](1, 4)
		cs[0].Send(1, 0, stale)

		recv0, stale0 := mMsgsRecv.Value(), mStaleEpoch.Value()
		lay := Layout{SrcBase: 0, DstBase: 1}
		fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond}
		sl := []float64{10, 11, 12, 13}
		if _, err := xfer(cs[0], s, lay, sl, nil, 0, fo); err != nil {
			t.Fatalf("source: %v", err)
		}
		dl := make([]float64, 4)
		if _, err := xfer(cs[1], s, lay, nil, dl, 0, fo); err != nil {
			t.Fatalf("destination: %v", err)
		}
		dRecv, dStale := mMsgsRecv.Value()-recv0, mStaleEpoch.Value()-stale0
		if dStale != 1 {
			t.Errorf("stale discards = %d, want 1", dStale)
		}
		if dRecv != 2 {
			t.Errorf("messages received = %d, want 2 (stale discard must be counted)", dRecv)
		}
	})

	t.Run("budgeted-chunks-and-acks", func(t *testing.T) {
		// Single pair, 8 elements, budget 32 → 2-element chunks, one
		// chunk per round: 4 chunks, 4 rounds, 4 acks, all matched. The
		// destination is in another world, so the chunks are packed and
		// acknowledged; in-process they are lent and owe no acks.
		src1 := tpl(t, []int{8}, dad.BlockAxis(1))
		dst1 := tpl(t, []int{8}, dad.BlockAxis(1))
		chunks0, rounds0 := mChunksSent.Value(), mRoundsSent.Value()
		ackS0, ackR0 := mAcksSent.Value(), mAcksRecv.Value()
		recv0 := mMsgsRecv.Value()
		got := runBudgetAcrossWorlds(t, src1, dst1, 32)
		verify(t, dst1, got)
		if d := mChunksSent.Value() - chunks0; d != 4 {
			t.Errorf("chunks sent = %d, want 4", d)
		}
		if d := mRoundsSent.Value() - rounds0; d != 4 {
			t.Errorf("rounds sent = %d, want 4", d)
		}
		if dS, dR := mAcksSent.Value()-ackS0, mAcksRecv.Value()-ackR0; dS != 4 || dR != 4 {
			t.Errorf("acks sent/recv = %d/%d, want 4/4", dS, dR)
		}
		if d := mMsgsRecv.Value() - recv0; d != 4 {
			t.Errorf("data messages received = %d, want 4 (acks are counted separately)", d)
		}
		rounds0, recv0 = mRoundsSent.Value(), mMsgsRecv.Value()
		checkInProcessLends(t, src1, dst1, 32, 4, got)
		if dRounds, dRecv := mRoundsSent.Value()-rounds0, mMsgsRecv.Value()-recv0; dRounds != 4 || dRecv != 4 {
			t.Errorf("in-process: %d rounds, %d data messages received, want 4 and 4", dRounds, dRecv)
		}
	})
}

// Zero-element coverage: ranks that own nothing pass nil buffers, and
// pairwise messages with zero elements (nil pooled buffer) travel every
// path — including the budgeted round splitter, which must never emit an
// empty round for them.
func TestZeroElementRanksAndMessages(t *testing.T) {
	// Source rank 0 owns zero elements under the generalized-block
	// distribution, so its local buffer is nil.
	src := tpl(t, []int{6}, dad.GenBlockAxis([]int{0, 3, 3}))
	dst := tpl(t, []int{6}, dad.BlockAxis(2))

	t.Run("local", func(t *testing.T) {
		s, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		srcLocals := fillByGlobal(src)
		dstLocals := make([][]float64, dst.NumProcs())
		for r := range dstLocals {
			dstLocals[r] = make([]float64, dst.LocalCount(r))
		}
		if srcLocals[0] != nil && len(srcLocals[0]) != 0 {
			t.Fatalf("rank 0 should own nothing, has %d elements", len(srcLocals[0]))
		}
		ExecuteLocalT(s, srcLocals, dstLocals)
		verify(t, dst, dstLocals)
	})

	t.Run("exchange", func(t *testing.T) {
		got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, 0, false, []int{4, 3, 2, 1, 0})
		verify(t, dst, got)
	})

	t.Run("exchange-fenced", func(t *testing.T) {
		got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, 0, true, []int{0, 1, 2, 3, 4})
		verify(t, dst, got)
	})

	t.Run("exchange-budgeted", func(t *testing.T) {
		got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, 48, false, []int{2, 0, 4, 1, 3})
		verify(t, dst, got)
	})

	// Aligned Block→Block layouts leave half the source/destination
	// pairs of a linearization with nothing to move. Lowered to a
	// schedule, such a pair is absent: no zero-element message travels,
	// and every round still carries at least one chunk: rounds ≤ chunks.
	t.Run("linear-empty-replies-budgeted", func(t *testing.T) {
		lsrc := tpl(t, []int{8}, dad.BlockAxis(2))
		ldst := tpl(t, []int{8}, dad.BlockAxis(2))
		srcLin := schedule.NewRowMajor(lsrc)
		dstLin := schedule.NewRowMajor(ldst)
		srcLocals := fillByGlobal(lsrc)
		chunks0, rounds0 := mChunksSent.Value(), mRoundsSent.Value()
		dstLocals := make([][]float64, 2)
		done := make(chan error, 4)
		cs := comm.NewWorld(4).Comms()
		lay := Layout{SrcBase: 0, DstBase: 2}
		for r := 0; r < 4; r++ {
			go func(r int) {
				var sl, dl []float64
				if r < 2 {
					sl = srcLocals[r]
				} else {
					dl = make([]float64, ldst.LocalCount(r-2))
					dstLocals[r-2] = dl
				}
				_, err := xferLinear(cs[r], srcLin, dstLin, lay, sl, dl, 0, TransferOpts{MaxBytesInFlight: 32})
				done <- err
			}(r)
		}
		for r := 0; r < 4; r++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		verify(t, ldst, dstLocals)
		dChunks, dRounds := mChunksSent.Value()-chunks0, mRoundsSent.Value()-rounds0
		// Each source: one 4-element message (2 chunks at 2 elems), and
		// none for the destination it shares no position with.
		if dChunks != 4 {
			t.Errorf("chunks sent = %d, want 4 (an empty pair sends nothing)", dChunks)
		}
		if dRounds > dChunks {
			t.Errorf("rounds %d > chunks %d: an empty round was flushed", dRounds, dChunks)
		}
	})
}

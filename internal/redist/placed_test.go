package redist

import (
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// counterValue reads a process-default counter by name.
func counterValue(name string) uint64 { return obs.Default().Counter(name).Value() }

// setMinRuns sets the average run lengths from which the handles built
// until tb ends lend remote chunks and post remote receives; math.MaxInt
// turns a half off.
func setMinRuns(tb testing.TB, lend, post int) {
	l, p := lendMinRun, postMinRun
	lendMinRun, postMinRun = lend, post
	tb.Cleanup(func() { lendMinRun, postMinRun = l, p })
}

// TestRemoteBulkLentAndPlaced: on the bulk coupling shape — 2 MiB
// messages of 4 KiB runs, there and back between two worlds over one TCP
// session — every payload byte is lent and every one is placed, so no
// packed buffer or 2 MiB frame is held.
func TestRemoteBulkLentAndPlaced(t *testing.T) {
	src := tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tcpSessionPair(t)
	w := newRemoteWorld(t, a, b, s, true)
	for i := 0; i < 5; i++ {
		w.step(t)
	}
	const steps = 20
	lent0, placed0 := counterValue("redist.remote_bytes_lent"), counterValue("wire.bytes_placed")
	for i := 0; i < steps; i++ {
		w.step(t)
	}
	verify(t, dst, w.dst)
	moved := uint64(steps * 2 * s.TotalElems() * 8)
	lent, placed := counterValue("redist.remote_bytes_lent")-lent0, counterValue("wire.bytes_placed")-placed0
	t.Logf("lent %.1f%%, placed %.1f%% of %d payload bytes; postings %d, placed postings %d, spoiled %d",
		100*float64(lent)/float64(moved), 100*float64(placed)/float64(moved), moved,
		counterValue("comm.postings"), counterValue("comm.postings_placed"), counterValue("session.placed_spoiled"))
	if lent != moved {
		t.Errorf("lent %d of %d payload bytes, want all", lent, moved)
	}
	if placed != moved {
		t.Errorf("placed %d of %d payload bytes, want all", placed, moved)
	}
}

// TestAliasedRemoteTransferPostsNothing: a rank whose destination is its
// source posts no receive, since a posted frame would land while the
// rank still packs from that memory. Rows to columns in place on 2+2
// ranks over a TCP session: every cross-world message is 128 KiB with
// contiguous destination runs, so each would be posted if not aliased,
// and the result must match an unaliased execution's.
func TestAliasedRemoteTransferPostsNothing(t *testing.T) {
	rows := tpl(t, []int{512, 512}, dad.BlockAxis(4), dad.CollapsedAxis())
	cols := tpl(t, []int{512, 512}, dad.CollapsedAxis(), dad.BlockAxis(4))
	fwd, err := schedule.Build(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	back, err := schedule.Build(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tcpSessionPair(t)
	all := []int{0, 1, 2, 3}
	wa, wb := comm.NewWorld(4), comm.NewWorld(4)
	pa, pb := wa.ConnectPeer(a, all[2:]), wb.ConnectPeer(b, all[:2])
	t.Cleanup(func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
	})
	ca, cb := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	cs := []*comm.Comm{ca[0], ca[1], cb[2], cb[3]}
	bufs := fillByGlobal(rows)
	posted := counterValue("comm.postings")
	for step, s := range []*schedule.Schedule{fwd, back, fwd} {
		errs := make(chan error, 4)
		for r := range cs {
			go func(r int) {
				_, err := xfer(cs[r], s, Layout{}, bufs[r], bufs[r], step, TransferOpts{})
				errs <- err
			}(r)
		}
		for range cs {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		verify(t, s.Dst, bufs)
	}
	if n := counterValue("comm.postings") - posted; n != 0 {
		t.Errorf("%d receives posted into destinations aliasing their sources", n)
	}
}

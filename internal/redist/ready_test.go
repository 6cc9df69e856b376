package redist

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/transport"
)

// TestEveryPostedMessagePlaced: a posted message is sent only once its
// receiver's ready token has come, so every one is placed, whatever the
// scheduling — on one processor and on two, run after run. The bulk
// coupling's shape at a quarter of its size (512 KiB messages of 2 KiB
// runs, there and back between two worlds over one TCP session), 125
// steps of 8 posted messages a pass: every payload byte of a pass is read
// straight into its destination.
func TestEveryPostedMessagePlaced(t *testing.T) {
	src := tpl(t, []int{512, 512}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{512, 512}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 125
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			a, b := tcpSessionPair(t)
			w := newRemoteWorld(t, a, b, s, true)
			placed0, posts0 := counterValue("wire.bytes_placed"), counterValue("comm.postings_placed")
			for i := 0; i < steps; i++ {
				w.step(t)
			}
			verify(t, dst, w.dst)
			msgs := uint64(steps * 2 * s.NumMessages())
			moved := uint64(steps * 2 * s.TotalElems() * 8)
			placed, posts := counterValue("wire.bytes_placed")-placed0, counterValue("comm.postings_placed")-posts0
			if placed != moved || posts != msgs {
				t.Errorf("placed %d of %d payload bytes, %d of %d messages; want all", placed, moved, posts, msgs)
			}
		})
	}
}

// TestLostBindingEndsRun: a Run whose peers sit behind a ConnectPeer
// binding that is lost ends instead of waiting forever — whether it waits
// for a message from across it, for a ready token from across it, or for
// an in-process receiver that gave up on it to take a lent chunk. The
// other world's ranks never run, and the pipe under the binding is closed.
// Unfenced, the Run returns an error wrapping the binding's cause. Fenced
// (SuspectAfter 0, so only the membership declares deaths), the ranks the
// lost binding killed are marked down and the policy applies: FailStrict
// returns *core.ErrRankDown, FailRedistribute completes on the survivors.
func TestLostBindingEndsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		// The schedule, and the group ranks of the world that runs; the
		// other world holds the rest of 0..3.
		dims     []int
		src, dst []dad.AxisDist
		here     []int
	}{
		// A destination waits on a source in the other world.
		{"destination", []int{64}, []dad.AxisDist{dad.BlockAxis(2)}, []dad.AxisDist{dad.CyclicAxis(2)}, []int{2, 3}},
		// A source holds a 128 KiB posted message for its ready token.
		{"ready_token", []int{128, 512}, []dad.AxisDist{dad.BlockAxis(2), dad.CollapsedAxis()},
			[]dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(2)}, []int{0, 1}},
		// Destination 0 waits on source 0 across the binding before it
		// would take source 1's lent chunk, and gives up; source 1 waits
		// for that chunk to be taken.
		{"lent_in_process", []int{64}, []dad.AxisDist{dad.BlockAxis(2)}, []dad.AxisDist{dad.CyclicAxis(2)}, []int{1, 2}},
	} {
		s, err := schedule.Build(tpl(t, tc.dims, tc.src...), tpl(t, tc.dims, tc.dst...))
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int{0, 64} {
			for _, mode := range []string{"", "/strict", "/redistribute"} {
				t.Run(fmt.Sprintf("%s/budget=%d%s", tc.name, budget, mode), func(t *testing.T) {
					opts := TransferOpts{MaxBytesInFlight: budget, ZeroCopyLocal: true}
					if budget > 0 && tc.name == "ready_token" {
						opts.MaxBytesInFlight = 1 << 20 // the message stays one chunk
					}
					if mode != "" {
						opts.Membership = core.NewMembership(4)
						if mode == "/redistribute" {
							opts.Policy = FailRedistribute
						}
					}
					runLost(t, s, tc.here, opts)
				})
			}
		}
	}
}

// runLost runs s on the group ranks here of a world coupled to another
// over a pipe, closes the pipe once they are under way, and checks how
// each Run ends: unfenced with the pipe's error; fenced under FailStrict
// with *core.ErrRankDown from at least one rank and no other error; fenced
// under FailRedistribute with no error, the other world's ranks observed
// down.
func runLost(t *testing.T, s *schedule.Schedule, here []int, opts TransferOpts) {
	a, b := transport.Pipe()
	defer b.Close()
	var there []int
	for r := 0; r < 4; r++ {
		if r != here[0] && r != here[1] {
			there = append(there, r)
		}
	}
	w := comm.NewWorld(4)
	rp := w.ConnectPeer(a, there)
	defer func() {
		<-rp.Done()
		for r := 0; r < 4; r++ {
			w.Kill(r) // what the runs left queued goes back to the pool
		}
	}()
	defer a.Close()
	cs := w.SharedGroup(1, []int{0, 1, 2, 3})
	lay := Layout{SrcBase: 0, DstBase: 2}
	type result struct {
		out *Outcome
		err error
	}
	done := make(chan result, len(here))
	for _, r := range here {
		go func(r int) {
			var sl, dl []float64
			if r < 2 {
				sl = make([]float64, s.Src.LocalCount(r))
			} else {
				dl = make([]float64, s.Dst.LocalCount(r-2))
			}
			out, err := xfer(cs[r], s, lay, sl, dl, 0, opts)
			done <- result{out, err}
		}(r)
	}
	time.Sleep(50 * time.Millisecond)
	select {
	case res := <-done:
		t.Fatalf("a rank returned before the binding was lost: %v", res.err)
	default:
	}
	a.Close()
	aborted, down := 0, map[int]bool{}
	for range here {
		var res result
		select {
		case res = <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Run still blocked 5 s after its binding was lost")
		}
		var rd *core.ErrRankDown
		switch {
		case opts.Membership == nil:
			if !errors.Is(res.err, transport.ErrClosed) {
				t.Errorf("Run returned %v, want an error wrapping transport.ErrClosed", res.err)
			}
		case opts.Policy == FailStrict:
			if errors.As(res.err, &rd) {
				aborted++
				down[rd.Rank] = true
			} else if res.err != nil {
				t.Errorf("Run returned %v, want nil or *core.ErrRankDown", res.err)
			}
		case res.err != nil:
			t.Errorf("Run returned %v, want the survivors' transfer to complete", res.err)
		default:
			for _, g := range res.out.Down {
				down[g] = true
			}
		}
	}
	if opts.Membership == nil {
		return
	}
	if opts.Policy == FailStrict && aborted == 0 {
		t.Error("no rank aborted with *core.ErrRankDown")
	}
	if len(down) == 0 {
		t.Error("no rank observed a peer down")
	}
	for g := range down {
		if g == here[0] || g == here[1] {
			t.Errorf("group rank %d, in the world that ran, was reported down", g)
		}
	}
}

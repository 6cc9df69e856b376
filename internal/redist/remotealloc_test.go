package redist

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// allocBytesPerRun is testing.AllocsPerRun for bytes: the heap bytes
// allocated process-wide per call of f, averaged over a batch of calls,
// median over batches — so one batch that grows a pool class or shares
// the process with another test's winding-down goroutines does not
// decide the result.
func allocBytesPerRun(batches, runs int, f func()) uint64 {
	per := make([]uint64, batches)
	for b := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		per[b] = (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	}
	slices.Sort(per)
	return per[batches/2]
}

// tcpSessionPair is one session over loopback TCP: the path a coupling of
// two processes runs on.
func tcpSessionPair(t *testing.T) (cli, srv transport.Conn) {
	t.Helper()
	lst, err := session.Listen("tcp", "127.0.0.1:0", session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := lst.Accept()
		acc <- c
	}()
	cli, err = session.Dial("tcp", lst.Addr(), session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if srv = <-acc; srv == nil {
		t.Fatal("session accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })
	return cli, srv
}

// remoteWorld is a 2+2 coupling split across two worlds joined by
// ConnectPeer over (a, b): the sources live in one world, the destinations
// in the other, so every data message crosses the connection. Each rank
// holds one persistent handle on a worker goroutine, so a Run can be
// repeated and measured.
type remoteWorld struct {
	start []chan struct{}
	done  chan error
	dst   [][]float64
}

func newRemoteWorld(t *testing.T, a, b transport.Conn, s *schedule.Schedule) *remoteWorld {
	t.Helper()
	const m, n = 2, 2
	all := []int{0, 1, 2, 3}
	wa, wb := comm.NewWorld(m+n), comm.NewWorld(m+n)
	pa, pb := wa.ConnectPeer(a, all[m:]), wb.ConnectPeer(b, all[:m])
	t.Cleanup(func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
	})
	csA, csB := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	src := fillByGlobal(s.Src)
	w := &remoteWorld{done: make(chan error, m+n)}
	for r := 0; r < m+n; r++ {
		c, sl, dl := csA[r], []float64(nil), []float64(nil)
		if r < m {
			sl = src[r]
		} else {
			c, dl = csB[r], make([]float64, s.Dst.LocalCount(r-m))
			w.dst = append(w.dst, dl)
		}
		xt, err := New[float64](c, s, Layout{SrcBase: 0, DstBase: m}, 0, TransferOpts{})
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan struct{}, 1)
		w.start = append(w.start, ch)
		go func() {
			for range ch {
				_, err := xt.Run(sl, dl)
				w.done <- err
			}
		}()
	}
	t.Cleanup(w.close)
	return w
}

func (w *remoteWorld) step(t *testing.T) {
	for _, ch := range w.start {
		ch <- struct{}{}
	}
	for range w.start {
		if err := <-w.done; err != nil {
			t.Fatalf("remote step: %v", err)
		}
	}
}

func (w *remoteWorld) close() {
	for _, ch := range w.start {
		close(ch)
	}
}

// TestRemoteReceiveSteadyStateAlloc is the executable statement of the
// pooled receive path: a warm 2+2 transfer of 2 MiB messages between two
// worlds reads every frame into a pooled buffer, decodes a message that
// owns the frame and unpacks straight from it, so a Run allocates next to
// nothing — where reading each frame into fresh memory cost about 15 MB
// per Run.
func TestRemoteReceiveSteadyStateAlloc(t *testing.T) {
	obs.DisableTracing()
	src := tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (transport.Conn, transport.Conn)
	}{
		{"tcp-session", tcpSessionPair},
		{"pipe", func(*testing.T) (transport.Conn, transport.Conn) { return transport.Pipe() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			w := newRemoteWorld(t, a, b, s)
			for i := 0; i < 10; i++ {
				w.step(t) // warm the pool classes, mailboxes and worker stacks
			}
			perRun := allocBytesPerRun(7, 3, func() { w.step(t) })
			t.Logf("%s: %d bytes allocated per Run moving %d MiB", tc.name, perRun, s.TotalElems()*8>>20)
			if perRun > 64<<10 {
				t.Errorf("warm remote Run allocates %d bytes, budget 64 KiB", perRun)
			}
			verify(t, dst, w.dst)
		})
	}
}

// TestKilledDestinationReleasesQueuedMessages: transfer messages comm
// discards instead of delivering go back to their pools. Sources post to
// destinations that never receive; killing the destinations empties their
// mailboxes through comm.Releaser, so the pool returns to its baseline
// and a zero-copy source waiting on its lent views is released instead of
// waiting forever.
func TestKilledDestinationReleasesQueuedMessages(t *testing.T) {
	src := tpl(t, []int{64}, dad.BlockAxis(2))
	dst := tpl(t, []int{64}, dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	for _, zc := range []bool{false, true} {
		name := map[bool]string{false: "packed", true: "zero-copy"}[zc]
		t.Run(name, func(t *testing.T) {
			baseline, hits := bufpool.Outstanding(), mZeroCopyHits.Value()
			w := comm.NewWorld(5)
			cs := w.Comms()
			srcLocals := fillByGlobal(src)
			done := make(chan error, 2)
			for r := 0; r < 2; r++ {
				go func(r int) {
					_, err := xfer(cs[r], s, Layout{SrcBase: 0, DstBase: 2}, srcLocals[r], nil, 0, TransferOpts{ZeroCopyLocal: zc})
					done <- err
				}(r)
			}
			if !zc {
				// Packed sends never wait: the messages are queued once the
				// sources return.
				for r := 0; r < 2; r++ {
					if err := <-done; err != nil {
						t.Fatal(err)
					}
				}
				if bufpool.Outstanding() <= baseline {
					t.Fatal("no pooled message queued; the shape is wrong for this test")
				}
			} else {
				// Lent views — every message of this shape is one contiguous
				// run: the sources wait for a receiver to give them back.
				deadline := time.Now().Add(5 * time.Second)
				for mZeroCopyHits.Value()-hits < uint64(s.NumMessages()) {
					if time.Now().After(deadline) {
						t.Fatal("the sources never lent their views")
					}
					time.Sleep(time.Millisecond)
				}
			}
			for r := 2; r < 5; r++ {
				w.Kill(r)
			}
			if zc {
				for r := 0; r < 2; r++ {
					select {
					case err := <-done:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("a zero-copy source still waits on views its dead receiver dropped")
					}
				}
			}
			// Other tests' sessions may still be returning buffers, so wait
			// for the count to come down rather than sampling it once.
			deadline := time.Now().Add(5 * time.Second)
			for d := bufpool.Outstanding() - baseline; d > 0; d = bufpool.Outstanding() - baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d pooled buffers outstanding after the destinations died", d)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

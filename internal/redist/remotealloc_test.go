package redist

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/bufpool/pooltest"
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
func tcpSessionPair(t testing.TB) (cli, srv transport.Conn) {
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
// repeated and measured. A round-trip world also moves the destinations'
// data back to the sources every step, the way a coupling exchanges it.
type remoteWorld struct {
	start []chan struct{}
	done  chan error
	dst   [][]float64
}

func newRemoteWorld(t *testing.T, a, b transport.Conn, s *schedule.Schedule, roundTrip bool) *remoteWorld {
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
	back, err := schedule.Build(s.Dst, s.Src)
	if err != nil {
		t.Fatal(err)
	}
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
		var bt *Transfer[float64]
		if roundTrip {
			if bt, err = New[float64](c, back, Layout{SrcBase: m, DstBase: 0}, 1, TransferOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		ch := make(chan struct{}, 1)
		w.start = append(w.start, ch)
		go func() {
			for range ch {
				_, err := xt.Run(sl, dl)
				if err == nil && bt != nil {
					_, err = bt.Run(dl, sl)
				}
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
		pair func(t testing.TB) (transport.Conn, transport.Conn)
	}{
		{"tcp-session", tcpSessionPair},
		{"pipe", func(testing.TB) (transport.Conn, transport.Conn) { return transport.Pipe() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			w := newRemoteWorld(t, a, b, s, false)
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

// TestRemoteRoundTripSteadyStateAllocs: a warm 2+2 round trip between two
// worlds over a TCP session — there and back, every frame through comm,
// the session, the transport and the wire in both directions — makes next
// to no heap allocation per step, in the small-message shape (4 KiB
// messages) and the bulk one (2 MiB messages, lent and placed). Every
// frame's writev vector, header read, standalone ack and remote decoder
// used to be one allocation each: 20 per small and 68 per bulk round trip.
func TestRemoteRoundTripSteadyStateAllocs(t *testing.T) {
	obs.DisableTracing()
	for _, tc := range []struct {
		name     string
		dims     []int
		src, dst []dad.AxisDist
		runs     int
	}{
		{"small", []int{2048}, []dad.AxisDist{dad.BlockAxis(2)}, []dad.AxisDist{dad.CyclicAxis(2)}, 200},
		{"bulk", []int{1024, 1024}, []dad.AxisDist{dad.BlockAxis(2), dad.CollapsedAxis()},
			[]dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(2)}, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := tpl(t, tc.dims, tc.src...), tpl(t, tc.dims, tc.dst...)
			s, err := schedule.Build(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			a, b := tcpSessionPair(t)
			w := newRemoteWorld(t, a, b, s, true)
			for i := 0; i < 20; i++ {
				w.step(t) // warm the pool classes, mailboxes and worker stacks
			}
			const budget = 2
			allocs := testing.AllocsPerRun(tc.runs, func() { w.step(t) })
			t.Logf("%s: %.1f allocations per round trip", tc.name, allocs)
			if allocs > budget {
				t.Errorf("warm remote round trip allocates %.1f times, budget %d", allocs, budget)
			}
			verify(t, dst, w.dst)
		})
	}
}

// TestRemoteFootprintFollowsMessages: a warm 2+2 exchange of 2 MiB
// messages over a TCP session — there and back every step — keeps the
// pool's footprint within 12 messages. The payloads the session retains
// until they are acked and the frames the receivers hold share one class,
// so a frame freed by unpack serves a later payload and a payload freed by
// an ack a later frame; with each frame a class above its payload the same
// exchange needs about 16.
// Every free buffer of the message's class and above is held aside first,
// so each one the transfer uses is an allocation the footprint counts.
func TestRemoteFootprintFollowsMessages(t *testing.T) {
	const msg = 2 << 20
	if err := pooltest.Balanced(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var held [][]byte
	for k := 20; k <= 24; k++ {
		for b := bufpool.TryGetFrame(1 << k); b != nil; b = bufpool.TryGetFrame(1 << k) {
			held = append(held, b)
		}
	}
	defer func() {
		for _, b := range held {
			bufpool.PutFrame(b)
		}
	}()
	footprint := func() int64 { return obs.Default().Snapshot().Gauges["bufpool.footprint_bytes"] }
	before := footprint()

	src := tpl(t, []int{1024, 1024}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{1024, 1024}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tcpSessionPair(t)
	w := newRemoteWorld(t, a, b, s, true)
	for i := 0; i < 10; i++ {
		w.step(t)
	}
	verify(t, dst, w.dst)
	grown := footprint() - before
	t.Logf("footprint grew %.1f MiB (%.1f messages of %d MiB)", float64(grown)/(1<<20), float64(grown)/msg, msg>>20)
	if grown > 12*msg {
		t.Errorf("warm 2+2 exchange of %d MiB messages grew the pool footprint by %d bytes, over 12 messages", msg>>20, grown)
	}
}

// TestRemoteFrameSharesPayloadClass pins the pool's headroom to the real
// envelope: a transfer message with a 2^k-byte payload, sent through comm
// and a session over TCP, arrives in a class buffer — comm's head, the
// message head, the alignment padding and the session trailer all fit. A
// frame that fits the TCP conn's read-ahead arrives as a view of its
// slab, and the slab is the class buffer: it stays out while the view
// does, after the connection has closed, and returns to its class when
// the view is put back. A larger frame arrives in a frame of the
// payload's own class.
func TestRemoteFrameSharesPayloadClass(t *testing.T) {
	a, b := tcpSessionPair(t)
	all := []int{0, 1}
	wa, wb := comm.NewWorld(2), comm.NewWorld(2)
	pa, pb := wa.ConnectPeer(a, all[1:]), wb.ConnectPeer(b, all[:1])
	closeAll := func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
		a.Close()
		b.Close()
	}
	t.Cleanup(closeAll)
	isClass := func(n int) bool {
		b := bufpool.Get(n)
		defer bufpool.Put(b)
		return cap(b) == n
	}
	ca, cb := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	var held *xferMsg // the view, kept past the close
	for _, k := range []int{12, 16, 21} {
		m := newMsg[float64](math.MaxUint64, (1<<k)/8)
		want := cap(m.data)
		ca[0].Send(1, math.MaxInt32, m)
		got, _ := cb[1].Recv(0, math.MaxInt32)
		rm := got.(*xferMsg)
		if slab := bufpool.ViewSlab(rm.frame); slab != nil {
			if !isClass(cap(slab)) {
				t.Errorf("a %d-byte payload arrived in a view of a slab of %d bytes, not a class buffer", 1<<k, cap(slab))
			}
			if held == nil {
				held = rm
				continue
			}
		} else if cap(rm.frame) != want {
			t.Errorf("a %d-byte payload arrived in a frame of capacity %d, want its class's %d", 1<<k, cap(rm.frame), want)
		}
		recycle(rm)
	}
	if held == nil {
		t.Fatal("no payload arrived as a view of the read-ahead slab")
	}
	closeAll()
	slab := bufpool.ViewSlab(held.frame)
	if slab == nil {
		t.Fatal("the slab went back with its view still out")
	}
	recycle(held)
	for deadline := time.Now().Add(5 * time.Second); bufpool.ViewSlab(slab[:1]) != nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slab is still out after its last view was put back")
		}
	}
	// Back in its class: drawing the class's free buffers finds it.
	var drawn [][]byte
	found := false
	for !found {
		b := bufpool.TryGetFrame(cap(slab))
		if b == nil {
			break
		}
		drawn = append(drawn, b)
		found = unsafe.SliceData(b) == unsafe.SliceData(slab)
	}
	for _, b := range drawn {
		bufpool.PutFrame(b)
	}
	if !found {
		t.Error("the slab did not return to its class")
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

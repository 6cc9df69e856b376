package redist

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// The placed-frame hazards, replayed byte for byte. faultconn acts on
// whole messages above the frame CRC, so these tests put a loopback relay
// between a session's dialer and its listener that sees the dialer's
// stream as wire frames and can flip a byte, cut the connection, hold the
// stream or inject a duplicate at an exact frame and offset. Each case
// ends bit-identical to ExecuteLocalT, or with a typed error.

// relayStep is what the relay does with part of a frame: wait for a
// channel, signal it got there, write bytes, cut the connection.
type relayStep struct {
	held  chan struct{} // closed on reaching the step
	wait  <-chan struct{}
	bytes []byte
	cut   bool
}

// relay forwards a dialer's connections to target. hook decides, per
// connection and data frame (frames of at least 64 KiB, counted from 0),
// the steps that frame takes; nil, or a nil result, forwards it as is.
type relay struct {
	ln     net.Listener
	target string
	hook   func(conn, frame int, b []byte) []relayStep
	stop   chan struct{}
	mu     sync.Mutex
	open   []net.Conn
}

func newRelay(t *testing.T, target string, hook func(conn, frame int, b []byte) []relayStep) *relay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &relay{ln: ln, target: target, hook: hook, stop: make(chan struct{})}
	go r.serve()
	t.Cleanup(r.close)
	return r
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) close() {
	r.ln.Close()
	close(r.stop)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.open {
		c.Close()
	}
}

func (r *relay) track(c net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.open = append(r.open, c)
}

func (r *relay) serve() {
	for n := 0; ; n++ {
		cli, err := r.ln.Accept()
		if err != nil {
			return
		}
		srv, err := net.Dial("tcp", r.target)
		if err != nil {
			cli.Close()
			return
		}
		r.track(cli)
		r.track(srv)
		go func() {
			io.Copy(cli, srv)
			cli.Close()
		}()
		go r.forward(n, cli, srv)
	}
}

// forward relays cli's frames to srv, through the hook.
func (r *relay) forward(conn int, cli, srv net.Conn) {
	defer srv.Close()
	defer cli.Close()
	for idx := 0; ; {
		var hdr [8]byte
		if _, err := io.ReadFull(cli, hdr[:]); err != nil {
			return
		}
		b := make([]byte, 8+int(binary.LittleEndian.Uint32(hdr[:4])))
		copy(b, hdr[:])
		if _, err := io.ReadFull(cli, b[8:]); err != nil {
			return
		}
		steps := []relayStep{{bytes: b}}
		if len(b) >= 64<<10 {
			if r.hook != nil {
				if s := r.hook(conn, idx, b); s != nil {
					steps = s
				}
			}
			idx++
		}
		for _, s := range steps {
			if s.held != nil {
				close(s.held)
			}
			if s.wait != nil {
				select {
				case <-s.wait:
				case <-r.stop:
					return
				}
			}
			if _, err := srv.Write(s.bytes); err != nil || s.cut {
				return
			}
		}
	}
}

// hazardWorld is a 2+2 coupling of 256 KiB messages — source runs of
// 2 KiB, contiguous destinations, so every chunk is lent and every
// receive posted — split across two worlds joined by one session over
// the relay: group ranks 0 and 1 in the dialer's world, 2 and 3 in the
// listener's.
type hazardWorld struct {
	s    *schedule.Schedule
	cs   []*comm.Comm
	srcs [][]float64
	dsts [][]float64
}

func newHazardWorld(t *testing.T, hook func(conn, frame int, b []byte) []relayStep, cfgs ...func(*session.Config)) *hazardWorld {
	t.Helper()
	src := tpl(t, []int{256, 512}, dad.BlockAxis(2), dad.CollapsedAxis())
	dst := tpl(t, []int{256, 512}, dad.CollapsedAxis(), dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cfg := session.Config{BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond, HandshakeTimeout: 5 * time.Second}
	for _, f := range cfgs {
		f(&cfg)
	}
	lst, err := session.Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := lst.Accept()
		acc <- c
	}()
	rl := newRelay(t, lst.Addr(), hook)
	cli, err := session.Dial("tcp", rl.addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acc
	if srv == nil {
		t.Fatal("session accept failed")
	}
	all := []int{0, 1, 2, 3}
	wa, wb := comm.NewWorld(4), comm.NewWorld(4)
	pa, pb := wa.ConnectPeer(cli, all[2:]), wb.ConnectPeer(srv, all[:2])
	t.Cleanup(func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
		// A rank that gave up leaves what arrived later in its mailbox.
		for _, r := range all {
			wa.Kill(r)
			wb.Kill(r)
		}
	})
	a, b := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	w := &hazardWorld{s: s, cs: []*comm.Comm{a[0], a[1], b[2], b[3]}, srcs: fillByGlobal(src)}
	for r := 0; r < 2; r++ {
		w.dsts = append(w.dsts, make([]float64, dst.LocalCount(r)))
	}
	return w
}

// start runs one transfer on the given group ranks, each on its own
// goroutine, and returns where their errors arrive.
func (w *hazardWorld) start(ranks []int, opts func(rank int) TransferOpts) <-chan error {
	done := make(chan error, len(ranks))
	for _, r := range ranks {
		go func(r int) {
			var sl, dl []float64
			if r < 2 {
				sl = w.srcs[r]
			} else {
				dl = w.dsts[r-2]
			}
			var o TransferOpts
			if opts != nil {
				o = opts(r)
			}
			_, err := xfer(w.cs[r], w.s, Layout{SrcBase: 0, DstBase: 2}, sl, dl, 0, o)
			done <- err
		}(r)
	}
	return done
}

// wait collects n errors from done; the first non-nil one is returned.
func wait(t *testing.T, done <-chan error, n int) error {
	t.Helper()
	var first error
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if first == nil {
				first = err
			}
		case <-time.After(20 * time.Second):
			t.Fatal("a rank never returned")
		}
	}
	return first
}

// waitCounter yields until the named counter has grown by n from base.
func waitCounter(t *testing.T, name string, base, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for counterValue(name)-base < n {
		if time.Now().After(deadline) {
			t.Fatalf("%s grew %d, want %d", name, counterValue(name)-base, n)
		}
		runtime.Gosched()
	}
}

// check fails unless the destinations hold what ExecuteLocalT puts there.
func (w *hazardWorld) check(t *testing.T) {
	t.Helper()
	ref := [][]float64{make([]float64, len(w.dsts[0])), make([]float64, len(w.dsts[1]))}
	ExecuteLocalT(w.s, w.srcs, ref)
	for r := range ref {
		for i := range ref[r] {
			if w.dsts[r][i] != ref[r][i] {
				t.Fatalf("destination rank %d element %d = %v, want %v", r, i, w.dsts[r][i], ref[r][i])
			}
		}
	}
}

// runPosted runs one transfer with the destinations posted before any
// source sends.
func (w *hazardWorld) runPosted(t *testing.T) error {
	t.Helper()
	base := counterValue("comm.postings")
	dst := w.start([]int{2, 3}, nil)
	waitCounter(t, "comm.postings", base, 4)
	src := w.start([]int{0, 1}, nil)
	return errors.Join(wait(t, src, 2), wait(t, dst, 2))
}

// TestPlacedFramesCountTowardAcks: a placed frame's bytes count toward
// the receiver's acknowledgement threshold like bytes read into the frame.
// Packed frames from a source that keeps sending are acknowledged only by
// that threshold; counting the few bytes left in a placed frame instead,
// a sender whose replay budget holds four of them would wait forever for
// an ack the receiver owes only after sixteen.
func TestPlacedFramesCountTowardAcks(t *testing.T) {
	w := newHazardWorld(t, nil, func(c *session.Config) { c.MaxReplayBytes = 1 << 20 })
	setMinRuns(t, math.MaxInt, postMinRun) // the sources pack
	placed := counterValue("wire.bytes_placed")
	for i := 0; i < 6; i++ {
		base := counterValue("comm.postings")
		dst := w.start([]int{2, 3}, nil)
		waitCounter(t, "comm.postings", base, 4)
		src := w.start([]int{0, 1}, nil)
		if err := errors.Join(wait(t, src, 2), wait(t, dst, 2)); err != nil {
			t.Fatal(err)
		}
		w.check(t)
	}
	if counterValue("wire.bytes_placed") == placed {
		t.Fatal("nothing was placed")
	}
}

func TestPlacedFrameHazards(t *testing.T) {
	// A byte flipped inside a placed payload fails the frame's CRC: the
	// posting is spoiled, the connection is lost, and the replay arrives
	// as a pooled frame unpacked over the whole region.
	t.Run("corrupt_placed_payload", func(t *testing.T) {
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			if conn == 0 && frame == 0 {
				b[len(b)/2] ^= 0x40
			}
			return nil
		})
		crc, placed := counterValue("wire.checksum_failures"), counterValue("wire.bytes_placed")
		if err := w.runPosted(t); err != nil {
			t.Fatal(err)
		}
		w.check(t)
		if counterValue("wire.checksum_failures") == crc {
			t.Error("the flipped byte was not caught by the frame CRC")
		}
		if got, all := counterValue("wire.bytes_placed")-placed, uint64(w.s.TotalElems()*8); got >= all {
			t.Errorf("%d of %d bytes placed: the corrupt frame's posting completed", got, all)
		}
	})

	// A connection cut in the middle of a lent, placed frame: the sender's
	// session replays the same views, and the spoiled posting leaves the
	// replay to the pooled path.
	t.Run("cut_mid_payload", func(t *testing.T) {
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			if conn == 0 && frame == 0 {
				return []relayStep{{bytes: b[:len(b)/2], cut: true}}
			}
			return nil
		})
		replayed := counterValue("session.frames_replayed")
		if err := w.runPosted(t); err != nil {
			t.Fatal(err)
		}
		w.check(t)
		if counterValue("session.frames_replayed") == replayed {
			t.Error("no frame was replayed after the cut")
		}
	})

	// A duplicate of an earlier run's frame lands on the next run's
	// posting for the same pair — its head is identical — and is placed
	// there; the session rejects its sequence number, which spoils the
	// posting, and the real frame is unpacked over what the duplicate
	// wrote.
	t.Run("duplicate_on_posted_key", func(t *testing.T) {
		var first []byte
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			switch {
			case conn != 0:
			case frame == 0:
				first = append([]byte(nil), b...)
			case frame == 4 && first != nil:
				return []relayStep{{bytes: first}, {bytes: b}}
			}
			return nil
		})
		if err := w.runPosted(t); err != nil {
			t.Fatal(err)
		}
		for r := range w.srcs {
			for i := range w.srcs[r] {
				w.srcs[r][i] *= -2
			}
		}
		dups, spoiled := counterValue("session.frames_dup_dropped"), counterValue("session.placed_spoiled")
		if err := w.runPosted(t); err != nil {
			t.Fatal(err)
		}
		w.check(t)
		if counterValue("session.frames_dup_dropped") == dups || counterValue("session.placed_spoiled") == spoiled {
			t.Error("the duplicate was not placed and rejected")
		}
	})

	// A receive posted after its frame's head arrived takes the rest of
	// the frame: what was read before is unpacked from the frame, the
	// remainder is placed.
	t.Run("posted_mid_frame", func(t *testing.T) {
		held, release := make(chan struct{}), make(chan struct{})
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			if conn == 0 && frame == 0 {
				return []relayStep{{bytes: b[:100<<10]}, {held: held, wait: release, bytes: b[100<<10:]}}
			}
			return nil
		})
		placed, frames := counterValue("wire.bytes_placed"), counterValue("bufpool.frame_gets")
		src := w.start([]int{0, 1}, nil)
		<-held
		// The reader has found no posting and taken a pooled frame for the
		// payload: it is past the head when the receives are posted.
		waitCounter(t, "bufpool.frame_gets", frames, 1)
		base := counterValue("comm.postings")
		dst := w.start([]int{2, 3}, nil)
		waitCounter(t, "comm.postings", base, 4)
		close(release)
		if err := errors.Join(wait(t, src, 2), wait(t, dst, 2)); err != nil {
			t.Fatal(err)
		}
		w.check(t)
		got, all := counterValue("wire.bytes_placed")-placed, uint64(w.s.TotalElems()*8)
		if got == 0 || got >= all {
			t.Errorf("%d of %d bytes placed; want all but a prefix of the first frame", got, all)
		}
	})

	// A fenced destination whose link stalls in the middle of a placed
	// frame gives up with ErrRankDown and withdraws its posting, which
	// forces the reader off the frame: its buffer may be written the
	// moment Run returns (this is a -race check). The lost connection is
	// resumed, and the unfenced source's frames are replayed and
	// acknowledged.
	t.Run("stall_fenced_withdraw", func(t *testing.T) {
		stall := make(chan struct{})
		defer close(stall)
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			if conn == 0 && frame == 0 {
				return []relayStep{{bytes: b[:100<<10]}, {wait: stall, bytes: b[100<<10:]}}
			}
			return nil
		})
		// Each world has its own liveness view; only the destinations
		// suspect silence. Both stamp epoch 1, so the heads match.
		mems := []*core.Membership{core.NewMembership(4), core.NewMembership(4)}
		fenced := func(r int) TransferOpts {
			o := TransferOpts{Membership: mems[r/2], PollInterval: time.Millisecond}
			if r >= 2 {
				o.SuspectAfter = 100 * time.Millisecond
			}
			return o
		}
		kicks, base := counterValue("comm.postings_kicked"), counterValue("comm.postings")
		dst := w.start([]int{2, 3}, fenced)
		waitCounter(t, "comm.postings", base, 4)
		src := w.start([]int{0, 1}, fenced)
		for i := 0; i < 2; i++ {
			var rd *core.ErrRankDown
			if err := wait(t, dst, 1); !errors.As(err, &rd) {
				t.Fatalf("fenced destination over a stalled link returned %v, want ErrRankDown", err)
			}
		}
		for r := range w.dsts {
			for i := range w.dsts[r] {
				w.dsts[r][i] = -1 // the caller's buffer again
			}
		}
		if counterValue("comm.postings_kicked") == kicks {
			t.Error("no reader was forced off a placed frame")
		}
		if err := wait(t, src, 2); err != nil {
			t.Fatalf("source after the destination gave up: %v", err)
		}
	})

	// A fenced source whose lent frames the link swallows — so no
	// acknowledgement ever comes — gives up with ErrRankDown within its
	// suspicion window by reclaiming them: the session copies the views
	// and lets go, and Run returns while the frames are unacknowledged.
	t.Run("stall_fenced_reclaim", func(t *testing.T) {
		w := newHazardWorld(t, func(conn, frame int, b []byte) []relayStep {
			if conn == 0 {
				return []relayStep{{}} // swallowed
			}
			return nil
		})
		const suspect = 100 * time.Millisecond
		mems := []*core.Membership{core.NewMembership(4), core.NewMembership(4)}
		fenced := func(r int) TransferOpts {
			return TransferOpts{Membership: mems[r/2], SuspectAfter: suspect, PollInterval: time.Millisecond}
		}
		reclaims := counterValue("session.lent_reclaimed")
		start := time.Now()
		done := w.start([]int{0, 1, 2, 3}, fenced)
		for i := 0; i < 4; i++ {
			var rd *core.ErrRankDown
			if err := wait(t, done, 1); !errors.As(err, &rd) {
				t.Fatalf("fenced run over a silent link returned %v, want ErrRankDown", err)
			}
		}
		// About 1.2 × SuspectAfter on an idle host: the silence that
		// suspects the peer, then the poll that reclaims.
		if el := time.Since(start); el > 10*suspect {
			t.Errorf("runs gave up after %v, SuspectAfter is %v", el, suspect)
		}
		for r := range w.srcs {
			for i := range w.srcs[r] {
				w.srcs[r][i] = -1 // the caller's source again, under -race
			}
		}
		if counterValue("session.lent_reclaimed") == reclaims {
			t.Error("no lent frame was reclaimed")
		}
	})
}

package prmi

// Failure injection: distributed frameworks live on networks that fail,
// so the PRMI layer must surface link failures and corrupt traffic as
// errors rather than hangs or panics.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/sidl"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

func simpleIface(t *testing.T) *sidl.Interface {
	t.Helper()
	pkg, err := sidl.Parse(`package p; interface I { independent double f(in double x); }`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	return iface
}

func TestEndpointSurvivesGarbage(t *testing.T) {
	iface := simpleIface(t)
	w := comm.NewWorld(2)
	cs := w.Comms()
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, NewCommLink(cs[1], 0, 0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	// Deliver a corrupt frame: a call kind byte followed by junk.
	cs[0].Send(1, 0, []byte{msgCall, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	err := <-serveErr
	if err == nil {
		t.Fatal("endpoint accepted corrupt call frame")
	}
}

func TestEndpointRejectsUnknownKind(t *testing.T) {
	iface := simpleIface(t)
	w := comm.NewWorld(2)
	cs := w.Comms()
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, NewCommLink(cs[1], 0, 0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	cs[0].Send(1, 0, []byte{0x77})
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "unexpected message kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestEndpointRejectsEmptyFrame(t *testing.T) {
	iface := simpleIface(t)
	w := comm.NewWorld(2)
	cs := w.Comms()
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, NewCommLink(cs[1], 0, 0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	cs[0].Send(1, 0, []byte{})
	if err := <-serveErr; err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestConnLinkPeerDeathSurfacesToServe(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, NewConnLink([]transport.Conn{b}, 0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	// The caller's process "dies": its connection closes with no shutdown
	// message.
	a.Close()
	err := <-serveErr
	if err == nil {
		t.Fatal("Serve returned nil after peer death")
	}
	if !errors.Is(err, transport.ErrClosed) && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v, want a closed-connection error", err)
	}
}

func TestConnLinkPeerDeathSurfacesToCaller(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The callee consumes the call, then dies without replying.
		m, err := b.Recv()
		if err != nil {
			t.Errorf("callee recv: %v", err)
		}
		bufpool.PutFrame(m)
		b.Close()
	}()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if err == nil {
		t.Fatal("caller got a result from a dead callee")
	}
	wg.Wait()
}

func TestCallerRejectsCorruptReply(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, err := b.Recv()
		if err != nil {
			return
		}
		bufpool.PutFrame(m)
		// Reply with a valid src prefix and framing but a corrupt head.
		var frame wire.Encoder
		frame.PutUvarint(0)
		frame.PutBytes([]byte{msgReply, 0xDE, 0xAD})
		frame.PutBytesRef(nil)
		b.Send(frame.Bytes())
	}()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if err == nil {
		t.Fatal("corrupt reply accepted")
	}
	wg.Wait()
	a.Close()
	b.Close()
}

func TestMeshShortFrame(t *testing.T) {
	// A frame cut short inside its header must error, not panic.
	a, b := transport.Pipe()
	defer a.Close()
	link := NewConnLink([]transport.Conn{b}, 0)
	if err := a.Send([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := link.Recv(0); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestIndependentCallTimesOutTyped(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close() // callee never answers; closing returns the calls
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("call to silent callee: %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not enforced")
	}
}

// TestIndependentCallRetriesThroughDrop: the first physical link dies
// under the call, taking the call frame with it. The session redials and
// replays the frame, the call completes, and PRMI sent it once.
func TestIndependentCallRetriesThroughDrop(t *testing.T) {
	reconnects := obs.Default().Counter("session.reconnects")
	before := reconnects.Value()
	// The first conn the caller dials carries the handshake (hello,
	// welcome) and flaps on the next message: the call frame.
	cli, srv := sessionPair(t, sessionCfg(), nil, func(n int, c transport.Conn) transport.Conn {
		if n == 1 {
			return faultconn.Wrap(c, faultconn.Scenario{FlapAfter: 2})
		}
		return c
	})
	counted := &countingConn{Conn: cli}
	h := newHarness(t, counted, srv)
	res, err := boundedCall(t, func() (*Result, error) {
		return h.port.CallIndependent(0, "f", Simple("x", 21.0))
	})
	if err != nil {
		t.Fatalf("call across the dead link failed: %v", err)
	}
	if res.Return.(float64) != 42 {
		t.Fatalf("return = %v", res.Return)
	}
	if n := counted.sends.Load(); n != 1 {
		t.Fatalf("PRMI sent the call %d times, want once", n)
	}
	if !eventually(func() bool { return reconnects.Value() > before }) {
		t.Fatal("no session reconnect; the first link did not die under the call")
	}
	if n := h.runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times", n)
	}
}

// TestIndependentCallExhaustsRetries: an independent call to a callee
// that never answers fails with ErrTimeout after one timeout, having sent
// one call frame.
func TestIndependentCallExhaustsRetries(t *testing.T) {
	silentCalleeTimesOutOnce(t, func(p *CallerPort) error {
		_, err := p.CallIndependent(0, "f", Simple("x", 1.0))
		return err
	})
}

// silentCalleeTimesOutOnce makes call against a callee that reads nothing:
// it must fail with ErrTimeout after one timeout, and the callee end of the
// link must hold exactly one call frame.
func silentCalleeTimesOutOnce(t *testing.T, call func(*CallerPort) error) {
	t.Helper()
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	port := NewCallerPort(matrixIface(t), NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	const timeout = 40 * time.Millisecond
	port.SetTimeout(timeout)
	start := time.Now()
	err := call(port)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed < timeout || elapsed > time.Second {
		t.Fatalf("call gave up after %v, want one timeout of %v", elapsed, timeout)
	}
	if n := callFrames(t, b); n != 1 {
		t.Fatalf("the callee end received %d call frames, want 1", n)
	}
}

// callFrames counts the call frames waiting at the callee end of a
// connLink mesh, releasing them.
func callFrames(t *testing.T, c transport.Conn) int {
	t.Helper()
	n := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		raw, err := c.RecvContext(ctx)
		cancel()
		if err != nil {
			return n
		}
		_, m, err := parseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m.kind() == msgCall {
			n++
		}
		m.Release()
	}
}

func TestLinkDownIsTyped(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	b.Close()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetTimeout(50 * time.Millisecond)
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("call over closed link: %v, want ErrLinkDown", err)
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("link-down error %v lost the link's own error", err)
	}
}

// TestStaleReplyDiscarded: two calls to a slow callee. The first times
// out; its late reply, arriving while the second call waits, carries the
// first call's sequence number and is discarded.
func TestStaleReplyDiscarded(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetTimeout(100 * time.Millisecond)

	// The callee answers the first call only once the second has arrived
	// — long after the first gave up — and then answers the second.
	go func() {
		raw1, err := b.Recv()
		if err != nil {
			return
		}
		raw2, err := b.Recv()
		if err != nil {
			bufpool.PutFrame(raw1)
			return
		}
		// The sequence number follows the kind byte of the head, which
		// follows the frame's rank prefix.
		seqOf := func(raw []byte) uint64 {
			defer bufpool.PutFrame(raw)
			d := wire.NewDecoder(raw)
			d.Uvarint()
			return wire.NewDecoder(d.BorrowBytes()[1:]).Uint64()
		}
		seq1, seq2 := seqOf(raw1), seqOf(raw2)
		for _, r := range []struct {
			seq uint64
			ret float64
		}{{seq1, -1}, {seq2, 42}} {
			var e, frame wire.Encoder
			putReplyHead(&e, r.seq, &replyMsg{ret: r.ret})
			frame.PutUvarint(0)
			frame.PutBytes(e.Bytes())
			frame.PutBytesRef(nil)
			if b.Send(frame.Bytes()) != nil {
				return
			}
		}
	}()
	if _, err := port.CallIndependent(0, "f", Simple("x", 1.0)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first call: %v, want ErrTimeout", err)
	}
	before := mStaleDropped.Value()
	res, err := port.CallIndependent(0, "f", Simple("x", 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Return.(float64) != 42 {
		t.Fatalf("caller accepted stale reply: return = %v", res.Return)
	}
	if mStaleDropped.Value() == before {
		t.Fatal("the late reply was not counted as stale")
	}
}

// countingConn counts the messages a connLink sends through it.
type countingConn struct {
	transport.Conn
	sends atomic.Int64
}

func (c *countingConn) SendOwned(head, payload []byte) error {
	c.sends.Add(1)
	return c.Conn.SendOwned(head, payload)
}

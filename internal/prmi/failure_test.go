package prmi

// Failure injection: distributed frameworks live on networks that fail,
// so the PRMI layer must surface link failures and corrupt traffic as
// errors rather than hangs or panics.

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestConnLinkPeerDeathSurfacesToServe: the caller's process "dies" — its
// end of the connection closes with no shutdown message — and the
// endpoint's Serve, a CommLink over the callee world's binding, returns
// ErrLinkDown with the binding's cause in the chain.
func TestConnLinkPeerDeathSurfacesToServe(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	c := couple(1, 1, a, b)
	t.Cleanup(c.close)
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, c.calleeLink(0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	a.Close()
	err := <-serveErr
	if !errors.Is(err, ErrLinkDown) || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Serve after peer death: %v, want ErrLinkDown over transport.ErrClosed", err)
	}
}

// TestConnLinkPeerDeathSurfacesToCaller: the callee world takes the call
// and dies without replying. The waiting call fails with ErrLinkDown over
// the binding's cause as soon as the binding fails, not at its timeout.
func TestConnLinkPeerDeathSurfacesToCaller(t *testing.T) {
	iface := simpleIface(t)
	c, calleeEnd := pipeCoupling(t)
	port := NewCallerPort(iface, c.callerLink(0), 0, 1, Eager)
	port.SetTimeout(500 * time.Millisecond)
	go func() {
		call, _ := c.callees[1].Recv(comm.AnySource, 0)
		call.(*Msg).Release()
		calleeEnd.Close()
	}()
	start := time.Now()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrLinkDown) || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("call to a callee that died: %v, want ErrLinkDown over transport.ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("ErrLinkDown took %v", elapsed)
	}
}

func TestCallerRejectsCorruptReply(t *testing.T) {
	iface := simpleIface(t)
	c, _ := pipeCoupling(t)
	port := NewCallerPort(iface, c.callerLink(0), 0, 1, Eager)
	go func() {
		call, _ := c.callees[1].Recv(comm.AnySource, 0)
		call.(*Msg).Release()
		// A reply that crosses the connection intact but whose head is
		// corrupt.
		c.callees[1].Send(0, 0, newMsg([]byte{msgReply, 0xDE, 0xAD}, nil))
	}()
	if _, err := port.CallIndependent(0, "f", Simple("x", 1.0)); err == nil {
		t.Fatal("corrupt reply accepted")
	}
}

// TestMeshShortFrame: a frame cut short inside comm's header fails the
// binding it arrives on, and the link reports ErrLinkDown over comm's
// decode error — not a panic.
func TestMeshShortFrame(t *testing.T) {
	c, calleeEnd := pipeCoupling(t)
	if err := calleeEnd.Send([]byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.callerLink(0).Recv(0)
	if !errors.Is(err, ErrLinkDown) || !strings.Contains(err.Error(), "corrupt remote frame") {
		t.Fatalf("short frame: %v, want ErrLinkDown over a corrupt-frame error", err)
	}
}

func TestIndependentCallTimesOutTyped(t *testing.T) {
	iface := simpleIface(t)
	c, _ := pipeCoupling(t) // the callee never answers
	port := NewCallerPort(iface, c.callerLink(0), 0, 1, Eager)
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
// it must fail with ErrTimeout after one timeout, and the callee world
// must hold exactly one call message.
func silentCalleeTimesOutOnce(t *testing.T, call func(*CallerPort) error) {
	t.Helper()
	c, _ := pipeCoupling(t)
	port := NewCallerPort(matrixIface(t), c.callerLink(0), 0, 1, Eager)
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
	if n := callMessages(c.callees[1]); n != 1 {
		t.Fatalf("the callee world received %d call messages, want 1", n)
	}
}

// callMessages counts the call messages waiting for a callee rank,
// releasing them.
func callMessages(callee *comm.Comm) int {
	n := 0
	for {
		payload, _, ok := callee.RecvTimeout(comm.AnySource, 0, 50*time.Millisecond)
		if !ok {
			return n
		}
		m := payload.(*Msg)
		if m.kind() == msgCall {
			n++
		}
		m.Release()
	}
}

// TestLinkDownIsTyped: the caller world's binding has lost its connection
// (the callee's end closed) before a call. The call reports ErrLinkDown at
// once, with the binding's cause, transport.ErrClosed, in the chain.
func TestLinkDownIsTyped(t *testing.T) {
	c, calleeEnd := pipeCoupling(t)
	calleeEnd.Close()
	<-c.pa.Done()
	if err := lostCall(t, c); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("link-down error %v lost the link's own error", err)
	}
}

// TestStaleReplyDiscarded: two calls to a slow callee. The first times
// out; its late reply, arriving while the second call waits, carries the
// first call's sequence number and is discarded.
func TestStaleReplyDiscarded(t *testing.T) {
	iface := simpleIface(t)
	c, _ := pipeCoupling(t)
	port := NewCallerPort(iface, c.callerLink(0), 0, 1, Eager)
	port.SetTimeout(100 * time.Millisecond)

	// The callee answers the first call only once the second has arrived
	// — long after the first gave up — and then answers the second.
	callee := c.callees[1]
	go func() {
		// The sequence number follows the kind byte of the head.
		seqOf := func() uint64 {
			payload, _ := callee.Recv(comm.AnySource, 0)
			m := payload.(*Msg)
			defer m.Release()
			return wire.NewDecoder(m.head[1:]).Uint64()
		}
		seq1, seq2 := seqOf(), seqOf()
		for _, r := range []struct {
			seq uint64
			ret float64
		}{{seq1, -1}, {seq2, 42}} {
			var e wire.Encoder
			putReplyHead(&e, r.seq, &replyMsg{ret: r.ret})
			callee.Send(0, 0, newMsg(e.Bytes(), nil))
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

// countingConn counts the messages comm sends through it.
type countingConn struct {
	transport.Conn
	sends atomic.Int64
}

func (c *countingConn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	c.sends.Add(int64(len(msgs)))
	return c.Conn.SendBatch(msgs, owned, loans)
}

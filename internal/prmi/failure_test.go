package prmi

// Failure injection: distributed frameworks live on networks that fail,
// so the PRMI layer must surface link failures and corrupt traffic as
// errors rather than hangs or panics.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
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
	port.SetRetryPolicy(RetryPolicy{Timeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("call to silent callee: %v, want ErrTimeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not enforced")
	}
}

func TestIndependentCallRetriesThroughDrop(t *testing.T) {
	iface := simpleIface(t)
	// Drop exactly the first outgoing message; the retry's resend gets
	// through. faultconn would also do this, but a hand-rolled conn keeps
	// the dependency direction clean (faultconn's own tests cover it, and
	// the failure-matrix test exercises the full stack).
	pa, pb := transport.Pipe()
	dropper := &dropFirstConn{Conn: pa}
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{dropper}, 0), 0, 1, Eager)
	port.SetRetryPolicy(RetryPolicy{Timeout: 80 * time.Millisecond, MaxAttempts: 3, Backoff: 5 * time.Millisecond})

	done := make(chan struct{})
	go func() {
		defer close(done)
		ep := NewEndpoint(iface, NewConnLink([]transport.Conn{pb}, 0), 0, 1, 1)
		ep.Handle("f", func(in *Incoming, out *Outgoing) error {
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		})
		ep.Serve()
	}()
	res, err := port.CallIndependent(0, "f", Simple("x", 21.0))
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if res.Return.(float64) != 42 {
		t.Fatalf("return = %v", res.Return)
	}
	if n := dropper.sends.Load(); n < 2 {
		t.Fatalf("expected a resend, saw %d sends", n)
	}
	port.Close()
	<-done
}

func TestIndependentCallExhaustsRetries(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetRetryPolicy(RetryPolicy{Timeout: 20 * time.Millisecond, MaxAttempts: 3, Backoff: time.Millisecond, BackoffCap: 2 * time.Millisecond})
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout after exhausted retries", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err %q does not report the attempt count", err)
	}
}

func TestLinkDownIsTyped(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	b.Close()
	_ = b
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetRetryPolicy(RetryPolicy{Timeout: 50 * time.Millisecond, MaxAttempts: 2, Backoff: time.Millisecond})
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("call over closed link: %v, want ErrLinkDown", err)
	}
}

func TestStaleReplyDiscarded(t *testing.T) {
	iface := simpleIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	port := NewCallerPort(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.SetRetryPolicy(RetryPolicy{Timeout: 150 * time.Millisecond, MaxAttempts: 2, Backoff: time.Millisecond})

	// A "slow" callee: ignores the first call entirely, then answers the
	// second call twice — once with the first attempt's stale seq, then
	// with the right one. The caller must skip the stale reply and accept
	// the fresh one.
	go func() {
		raw1, err := b.Recv() // first attempt; never answered
		if err != nil {
			return
		}
		raw2, err := b.Recv() // second attempt
		if err != nil {
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
			putReplyHead(&e, r.seq, 0, &replyMsg{ret: r.ret})
			frame.PutUvarint(0)
			frame.PutBytes(e.Bytes())
			frame.PutBytesRef(nil)
			b.Send(frame.Bytes())
		}
	}()
	res, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Return.(float64) != 42 {
		t.Fatalf("caller accepted stale reply: return = %v", res.Return)
	}
}

// dropFirstConn swallows the first message a connLink sends and counts
// attempts.
type dropFirstConn struct {
	transport.Conn
	sends atomic.Int64
}

func (c *dropFirstConn) SendOwned(head, payload []byte) error {
	if c.sends.Add(1) == 1 {
		bufpool.Put(payload)
		return nil // eaten by the network
	}
	return c.Conn.SendOwned(head, payload)
}

package prmi

import (
	"errors"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// coupling is PRMI's distributed deployment in a test: m caller ranks in
// one world and n callee ranks in another, the worlds bound to the two
// ends of one connection with comm.ConnectPeer, and a shared group over
// all m+n ranks in each. Caller i talks through callers[i] and callee j
// through callees[m+j]; the other handles of each slice belong to ranks
// that live across the connection.
type coupling struct {
	m, n             int
	wa, wb           *comm.World
	pa, pb           *comm.RemotePeer
	callers, callees []*comm.Comm
}

func couple(m, n int, callerEnd, calleeEnd transport.Conn) *coupling {
	all := make([]int, m+n)
	for r := range all {
		all[r] = r
	}
	c := &coupling{m: m, n: n, wa: comm.NewWorld(m + n), wb: comm.NewWorld(m + n)}
	c.pa, c.pb = c.wa.ConnectPeer(callerEnd, all[m:]), c.wb.ConnectPeer(calleeEnd, all[:m])
	c.callers, c.callees = c.wa.SharedGroup(1, all), c.wb.SharedGroup(1, all)
	return c
}

func (c *coupling) callerLink(i int) Link { return NewCommLink(c.callers[i], c.m, 0) }
func (c *coupling) calleeLink(j int) Link { return NewCommLink(c.callees[c.m+j], 0, 0) }

// close tears both bindings down, waits for their pumps, and kills every
// rank, which releases whatever their mailboxes still hold — duplicates,
// stale replies, calls nobody served.
func (c *coupling) close() {
	c.pa.Close()
	c.pb.Close()
	<-c.pa.Done()
	<-c.pb.Done()
	for r := 0; r < c.m+c.n; r++ {
		c.wa.Kill(r)
		c.wb.Kill(r)
	}
}

// pipeCoupling couples a 1×1 pair over a transport.Pipe and returns it
// with the pipe's callee end; it is torn down at cleanup.
func pipeCoupling(t *testing.T) (*coupling, transport.Conn) {
	a, b := transport.Pipe()
	c := couple(1, 1, a, b)
	t.Cleanup(c.close)
	return c, b
}

// lostCall calls through a coupling whose connection is already gone
// with a 500 ms timeout. The call must fail with ErrLinkDown well before
// the timeout; the error is returned for the cause to be checked.
func lostCall(t *testing.T, c *coupling) error {
	t.Helper()
	port := NewCallerPort(simpleIface(t), c.callerLink(0), 0, 1, Eager)
	port.SetTimeout(500 * time.Millisecond)
	start := time.Now()
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	elapsed := time.Since(start)
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("call over a lost binding: %v after %v, want ErrLinkDown", err, elapsed)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("ErrLinkDown took %v; a lost binding must not wait for the timeout", elapsed)
	}
	return err
}

// TestCommLinkLostSessionIsPeerLost is TestLinkDownIsTyped over a session
// whose redial budget is spent: the binding's cause is
// session.ErrPeerLost.
func TestCommLinkLostSessionIsPeerLost(t *testing.T) {
	cfg := sessionCfg()
	cfg.MaxAttempts = 2
	var raw transport.Listener
	var physical transport.Conn
	cli, srv := sessionPair(t, cfg,
		func(l transport.Listener) transport.Listener { raw = l; return l },
		func(_ int, c transport.Conn) transport.Conn { physical = c; return c })
	c := couple(1, 1, cli, srv)
	t.Cleanup(c.close)
	// The physical connection dies and nothing answers the redials.
	raw.Close()
	physical.Close()
	select {
	case <-c.pa.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the session never gave the peer up")
	}
	if err := lostCall(t, c); !errors.Is(err, session.ErrPeerLost) {
		t.Fatalf("link-down error %v does not carry session.ErrPeerLost", err)
	}
}

// TestCommLinkQueuedBeforeLinkDown: messages that arrived before the
// binding failed are still received, in order, before ErrLinkDown; a Send
// on the lost link reports ErrLinkDown and releases its message.
func TestCommLinkQueuedBeforeLinkDown(t *testing.T) {
	c, calleeEnd := pipeCoupling(t)
	callee := c.calleeLink(0)
	for i := 0; i < 3; i++ {
		if err := callee.Send(0, newMsg([]byte{msgReply, byte(i)}, nil)); err != nil {
			t.Fatal(err)
		}
	}
	calleeEnd.Close()
	<-c.pa.Done()
	link := c.callerLink(0)
	for i := 0; i < 3; i++ {
		from, m, err := link.Recv(0)
		if err != nil {
			t.Fatalf("message %d queued before the loss: %v", i, err)
		}
		if from != 0 || m.head[1] != byte(i) {
			t.Fatalf("message %d: from %d, head % x", i, from, m.head)
		}
		m.Release()
	}
	if _, _, err := link.Recv(0); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("blocking Recv after the queue drained: %v, want ErrLinkDown", err)
	}
	if _, _, err := link.Recv(time.Second); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("bounded Recv after the queue drained: %v, want ErrLinkDown", err)
	}
	if err := link.Send(0, newMsg([]byte{msgCall}, nil)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Send over the lost link: %v, want ErrLinkDown", err)
	}
}

package session

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/faultconn"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// The transport.Conn send contract, stated once and run over every
// implementation: TCP, the in-memory pipe, a session over TCP and a
// faultconn wrapper. Each case gets a fresh pair and must leave
// bufpool.Outstanding at its baseline once the pair is closed.

// tcpConnPair returns a connected pair of raw TCP conns; a is the dialer.
func tcpConnPair(t *testing.T) (a, b transport.Conn) {
	t.Helper()
	l, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		acc <- c
	}()
	if a, err = transport.Dial("tcp", l.Addr()); err != nil {
		t.Fatal(err)
	}
	if b = <-acc; b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// sessionConnPair returns a connected pair of sessions over loopback TCP;
// a is the dialing side.
func sessionConnPair(t *testing.T) (a, b transport.Conn) {
	t.Helper()
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		acc <- c
	}()
	if a, err = Dial("tcp", l.Addr(), fastCfg()); err != nil {
		t.Fatal(err)
	}
	if b = <-acc; b == nil {
		t.Fatal("accept failed")
	}
	return a, b
}

// sendPathsIdentical: Send, a one-message SendBatch (with empty and nil
// segments), SendOwned (an owned payload, and a nil one) and a lent
// payload deliver identical bytes.
func sendPathsIdentical(t *testing.T, a, b transport.Conn) {
	msg := payloadBytes(0x5a, 300)
	sends := []func() error{
		func() error { return a.Send(msg) },
		func() error {
			return a.SendBatch([]net.Buffers{{msg[:1], nil, msg[1:100], {}, msg[100:]}}, false, nil)
		},
		func() error {
			l := newTestLoan(msg[17:200], nil, msg[200:])
			return a.SendBatch([]net.Buffers{{msg[:17]}}, true, []wire.Loan{l})
		},
		func() error {
			payload := bufpool.Get(len(msg) - 17)
			copy(payload, msg[17:])
			return a.SendOwned(msg[:17], payload)
		},
		func() error { return a.SendOwned(msg, nil) },
	}
	for i, send := range sends {
		if err := send(); err != nil {
			t.Fatalf("send path %d: %v", i, err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("recv after send path %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("send path %d delivered % x, want % x", i, got, msg)
		}
		bufpool.PutFrame(got)
	}
}

// ownedOnClosedConn: a refused SendOwned still takes its payload and
// returns it to the pool, once.
func ownedOnClosedConn(t *testing.T, a, _ transport.Conn) {
	a.Close()
	baseline := bufpool.Outstanding()
	if err := a.SendOwned([]byte("head"), bufpool.Get(64)); err == nil {
		t.Fatal("SendOwned on a closed conn succeeded")
	}
	if d := bufpool.Outstanding() - baseline; d != 0 {
		t.Fatalf("refused SendOwned left %+d buffers outstanding, want 0", d)
	}
}

// batchMatchesSingles: a batch, owned or not, delivers exactly what one
// send per message would — the same messages, bytes and order.
func batchMatchesSingles(t *testing.T, a, b transport.Conn) {
	msgs := [][]byte{payloadBytes(1, 40), {}, payloadBytes(2, 3000), payloadBytes(3, 17)}
	for _, owned := range []bool{false, true} {
		batch := make([]net.Buffers, len(msgs))
		for i, m := range msgs {
			h := len(m) / 3
			if owned {
				var payload []byte
				if len(m) > h {
					payload = bufpool.Get(len(m) - h)
					copy(payload, m[h:])
				}
				batch[i] = net.Buffers{m[:h], payload}
			} else {
				batch[i] = net.Buffers{m[:h], nil, m[h:]}
			}
		}
		if err := a.SendBatch(batch, owned, nil); err != nil {
			t.Fatalf("owned=%v: %v", owned, err)
		}
		for i, want := range msgs {
			got, err := b.Recv()
			if err != nil {
				t.Fatalf("owned=%v: recv %d: %v", owned, i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("owned=%v: message %d delivered % x, want % x", owned, i, got, want)
			}
			bufpool.PutFrame(got)
		}
	}
}

// ownedBatchOnClosedConn: a refused owned batch returns every payload to
// the pool, once.
func ownedBatchOnClosedConn(t *testing.T, a, _ transport.Conn) {
	a.Close()
	baseline := bufpool.Outstanding()
	batch := []net.Buffers{{[]byte("h1"), bufpool.Get(64)}, {[]byte("h2"), nil}, {[]byte("h3"), bufpool.Get(300)}}
	if err := a.SendBatch(batch, true, nil); err == nil {
		t.Fatal("SendBatch on a closed conn succeeded")
	}
	if d := bufpool.Outstanding() - baseline; d != 0 {
		t.Fatalf("refused SendBatch left %+d buffers outstanding, want 0", d)
	}
}

// testLoan is a wire.Loan over fixed segments that counts its releases
// and closes released on the first.
type testLoan struct {
	segs     net.Buffers
	n        atomic.Int32
	released chan struct{}
}

func newTestLoan(segs ...[]byte) *testLoan {
	return &testLoan{segs: segs, released: make(chan struct{})}
}

func (l *testLoan) Segs() net.Buffers { return l.segs }

func (l *testLoan) Release() {
	if l.n.Add(1) == 1 {
		close(l.released)
	}
}

// wait blocks until the loan is released, and fails unless it was
// released exactly once.
func (l *testLoan) wait(t *testing.T, what string) {
	t.Helper()
	select {
	case <-l.released:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: loan never released", what)
	}
	if n := l.n.Load(); n != 1 {
		t.Fatalf("%s: loan released %d times, want 1", what, n)
	}
}

// lentDelivered: a batch mixing lent, owned and plain messages delivers
// their bytes in order, and each loan is released exactly once — on a
// session only once the peer acknowledges it, which its ack-now mark
// makes immediate.
func lentDelivered(t *testing.T, a, b transport.Conn) {
	big := payloadBytes(9, 5000)
	l1, l2 := newTestLoan(big[:1000], big[1000:4096], nil, big[4096:]), newTestLoan()
	batch := []net.Buffers{{[]byte("lent|")}, {[]byte("own|"), ownedPayload(6, 33)}, {[]byte("empty loan")}}
	if err := a.SendBatch(batch, true, []wire.Loan{l1, nil, l2}); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{append([]byte("lent|"), big...), append([]byte("own|"), payloadBytes(6, 33)...), []byte("empty loan")} {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
		}
		bufpool.PutFrame(got)
	}
	l1.wait(t, "delivered")
	l2.wait(t, "delivered empty")
}

// lentOnClosedConn: a refused lent send releases its loan, once, before
// it returns.
func lentOnClosedConn(t *testing.T, a, _ transport.Conn) {
	a.Close()
	l := newTestLoan(payloadBytes(1, 100))
	if err := a.SendBatch([]net.Buffers{{[]byte("h")}}, true, []wire.Loan{l}); err == nil {
		t.Fatal("lent SendBatch on a closed conn succeeded")
	}
	if n := l.n.Load(); n != 1 {
		t.Fatalf("refused lent send released its loan %d times, want 1", n)
	}
}

// lentTeardown: a loan outstanding when both ends close is released
// exactly once, whichever of the ack and the teardown comes first.
func lentTeardown(t *testing.T, a, b transport.Conn) {
	l := newTestLoan(payloadBytes(2, 70000))
	if err := a.SendBatch([]net.Buffers{{[]byte("h")}}, true, []wire.Loan{l}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	b.Close()
	l.wait(t, "teardown")
}

func TestConnConformance(t *testing.T) {
	pairs := []struct {
		name string
		pair func(t *testing.T) (a, b transport.Conn)
	}{
		{"tcp", tcpConnPair},
		{"pipe", func(*testing.T) (transport.Conn, transport.Conn) { return transport.Pipe() }},
		{"session", sessionConnPair},
		{"faultconn", func(*testing.T) (transport.Conn, transport.Conn) {
			return faultconn.Pipe(faultconn.Scenario{Seed: 1})
		}},
	}
	cases := []struct {
		name string
		run  func(t *testing.T, a, b transport.Conn)
	}{
		{"send_paths_identical", sendPathsIdentical},
		{"owned_on_closed_conn", ownedOnClosedConn},
		{"batch_matches_singles", batchMatchesSingles},
		{"owned_batch_on_closed_conn", ownedBatchOnClosedConn},
		{"lent_delivered", lentDelivered},
		{"lent_on_closed_conn", lentOnClosedConn},
		{"lent_teardown", lentTeardown},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					baseline := bufpool.Outstanding()
					a, b := p.pair(t)
					c.run(t, a, b)
					a.Close()
					b.Close()
					poolBalanced(t, baseline)
				})
			}
		})
	}

	// faultconn decides a message's fate after SendOwned has taken the
	// payload; whatever it decides, the payload is back in the pool exactly
	// once when the call returns, and what is delivered is intact.
	for _, f := range []struct {
		name      string
		faults    faultconn.Faults
		delivered int
	}{
		{"drop", faultconn.Faults{Drop: 1}, 0},
		{"duplicate", faultconn.Faults{Dup: 1}, 2},
		{"hold", faultconn.Faults{Reorder: 1}, 0},
	} {
		t.Run("faultconn/owned_"+f.name, func(t *testing.T) {
			baseline := bufpool.Outstanding()
			a, b := faultconn.Pipe(faultconn.Scenario{Seed: 1, Send: f.faults})
			defer b.Close()
			defer a.Close()
			if err := a.SendOwned([]byte("head|"), ownedPayload(3, 64)); err != nil {
				t.Fatal(err)
			}
			if d := bufpool.Outstanding() - baseline; d != 0 {
				t.Fatalf("%s: %+d buffers outstanding after SendOwned, want 0", f.name, d)
			}
			want := append([]byte("head|"), payloadBytes(3, 64)...)
			for i := 0; i < f.delivered; i++ {
				got, err := b.Recv()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: copy %d delivered % x, want % x", f.name, i, got, want)
				}
				bufpool.PutFrame(got)
			}
		})
		// A batch meets the same faults frame by frame.
		t.Run("faultconn/batch_"+f.name, func(t *testing.T) {
			baseline := bufpool.Outstanding()
			a, b := faultconn.Pipe(faultconn.Scenario{Seed: 1, Send: f.faults})
			defer b.Close()
			defer a.Close()
			batch := []net.Buffers{{[]byte("one|"), ownedPayload(4, 64)}, {[]byte("two|"), ownedPayload(5, 32)}}
			if err := a.SendBatch(batch, true, nil); err != nil {
				t.Fatal(err)
			}
			if d := bufpool.Outstanding() - baseline; d != 0 {
				t.Fatalf("%s: %+d buffers outstanding after SendBatch, want 0", f.name, d)
			}
			for _, want := range [][]byte{
				append([]byte("one|"), payloadBytes(4, 64)...),
				append([]byte("two|"), payloadBytes(5, 32)...),
			} {
				for i := 0; i < f.delivered; i++ {
					got, err := b.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: copy %d delivered % x, want % x", f.name, i, got, want)
					}
					bufpool.PutFrame(got)
				}
			}
		})
	}
}

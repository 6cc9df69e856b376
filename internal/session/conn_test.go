package session

import (
	"bytes"
	"net"
	"testing"

	"mxn/internal/bufpool"
	"mxn/internal/faultconn"
	"mxn/internal/transport"
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

// sendPathsIdentical: Send, SendV (with empty and nil segments) and
// SendOwned (a lent payload, and a nil one) deliver identical bytes.
func sendPathsIdentical(t *testing.T, a, b transport.Conn) {
	msg := payloadBytes(0x5a, 300)
	sends := []func() error{
		func() error { return a.Send(msg) },
		func() error { return a.SendV(net.Buffers{msg[:1], nil, msg[1:100], {}, msg[100:]}) },
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
	}
}

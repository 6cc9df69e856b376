package faultconn

import (
	"errors"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
)

func TestFlapAfterKillsConnAsClosed(t *testing.T) {
	fc, peer := Pipe(Scenario{FlapAfter: 2})
	defer fc.Close()
	defer peer.Close()

	for i := 0; i < 2; i++ {
		if err := fc.Send([]byte("ok")); err != nil {
			t.Fatalf("Send %d before flap: %v", i, err)
		}
		recvOne(t, peer)
	}
	err := fc.Send([]byte("doomed"))
	if !errors.Is(err, ErrFlapped) {
		t.Fatalf("Send after flap: %v, want ErrFlapped", err)
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatal("ErrFlapped does not match transport.ErrClosed")
	}
	if !fc.Flapped() {
		t.Fatal("Flapped() false after count trigger")
	}
	// The inner conn died with the flap: the peer observes a closed link.
	if _, err := peer.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("peer Recv after flap: %v, want ErrClosed", err)
	}
	if _, err := fc.Recv(); !errors.Is(err, ErrFlapped) {
		t.Fatalf("Recv after flap: %v, want ErrFlapped", err)
	}
}

func TestFlapEveryKillsConnOnTimer(t *testing.T) {
	fc, peer := Pipe(Scenario{FlapEvery: 20 * time.Millisecond})
	defer fc.Close()
	defer peer.Close()

	if err := fc.Send([]byte("early")); err != nil {
		t.Fatalf("Send before flap: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !fc.Flapped() {
		if time.Now().After(deadline) {
			t.Fatal("FlapEvery timer never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := fc.Send([]byte("late")); !errors.Is(err, ErrFlapped) {
		t.Fatalf("Send after timed flap: %v, want ErrFlapped", err)
	}
}

// TestFlapListenerKeepsAccepting is the property that separates a flap
// from a partition: each accepted conn dies after the count, but redials
// through the same listener keep working.
func TestFlapListenerKeepsAccepting(t *testing.T) {
	inner, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	l := WrapListener(inner, Scenario{FlapAfter: 2})
	defer l.Close()

	srvErr := make(chan error, 8)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						if !errors.Is(err, transport.ErrClosed) {
							srvErr <- err
						}
						return
					}
					err = c.Send(msg)
					bufpool.PutFrame(msg)
					if err != nil && !errors.Is(err, transport.ErrClosed) {
						srvErr <- err
						return
					}
				}
			}()
		}
	}()

	// Three dial generations: each accepted conn flaps after two
	// messages (an echo round is one recv + one send on the server conn),
	// but a fresh dial always succeeds.
	for gen := 0; gen < 3; gen++ {
		c, err := transport.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatalf("gen %d: Dial: %v", gen, err)
		}
		if err := c.Send([]byte("ping")); err != nil {
			t.Fatalf("gen %d: Send: %v", gen, err)
		}
		recvOne(t, c)
		// The second round trips the server conn's flap (recv count 2
		// pushes total past 2 on send): the client sees the link die.
		c.Send([]byte("ping"))
		m, _ := c.Recv()
		bufpool.PutFrame(m)
		c.Close()
	}
	select {
	case err := <-srvErr:
		t.Fatalf("server fault: %v", err)
	default:
	}
}

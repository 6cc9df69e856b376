package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/dad"
	"mxn/internal/faultconn"
	"mxn/internal/session"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// echoServer accepts sessions forever; each session echoes every data
// frame back on channel "echo" with the same seq and payload. Physical
// reconnects are absorbed by the session listener, so one echo goroutine
// spans arbitrarily many link failures.
func echoServer(t *testing.T) *session.Listener {
	t.Helper()
	inner, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lst := session.WrapListener(inner, session.Config{})
	t.Cleanup(func() { lst.Close() })
	go func() {
		for {
			c, err := lst.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) {
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if reply := echoReply(msg); reply != nil && c.Send(reply) != nil {
						return
					}
				}
			}(c)
		}
	}()
	return lst
}

func TestSessionBridgeRedialsAfterLinkFailure(t *testing.T) {
	lst := echoServer(t)

	var mu sync.Mutex
	var conns []transport.Conn
	dial := func(context.Context) (transport.Conn, error) {
		c, err := transport.Dial("tcp", lst.Addr())
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}
	sc, err := session.NewConn(dial, session.Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rb := NewNetBridge(sc)

	if err := rb.SendData("ping", 1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := rb.RecvData("echo", 1)
	if err != nil || len(got) != 2 {
		t.Fatalf("first round-trip: %v %v", got, err)
	}

	// Cut the link out from under the bridge; both the pump and the next
	// send observe the failure and the bridge must come back on a fresh
	// connection without RecvData callers noticing.
	mu.Lock()
	conns[0].Close()
	mu.Unlock()

	if err := rb.SendData("ping", 2, []float64{3}); err != nil {
		t.Fatalf("send across redial: %v", err)
	}
	got, err = rb.RecvData("echo", 2)
	if err != nil || len(got) != 1 || got[0] != 3 {
		t.Fatalf("round-trip after redial: %v %v", got, err)
	}

	mu.Lock()
	n := len(conns)
	mu.Unlock()
	if n < 2 {
		t.Fatalf("bridge never redialed: %d dials", n)
	}
}

func TestSessionBridgeSurvivesFaultconnPartition(t *testing.T) {
	lst := echoServer(t)
	// The first connection hard-partitions itself after 2 frames in either
	// direction; later dials are clean.
	dials := 0
	dial := func(context.Context) (transport.Conn, error) {
		dials++
		c, err := transport.Dial("tcp", lst.Addr())
		if err != nil {
			return nil, err
		}
		if dials == 1 {
			return faultconn.Wrap(c, faultconn.Scenario{
				Seed: 7,
				Send: faultconn.Faults{FailAfter: 2},
				Recv: faultconn.Faults{FailAfter: 2},
			}), nil
		}
		return c, err
	}
	sc, err := session.NewConn(dial, session.Config{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rb := NewNetBridge(sc)
	for seq := uint64(1); seq <= 6; seq++ {
		if err := rb.SendData("ping", seq, []float64{float64(seq)}); err != nil {
			t.Fatalf("seq %d send: %v", seq, err)
		}
		got, err := rb.RecvData("echo", seq)
		if err != nil || len(got) != 1 || got[0] != float64(seq) {
			t.Fatalf("seq %d round-trip: %v %v", seq, got, err)
		}
	}
	if dials < 2 {
		t.Fatalf("partitioned bridge never redialed: %d dials", dials)
	}
}

func TestSessionBridgeExhaustsRedialBudget(t *testing.T) {
	lst := echoServer(t)
	dials := 0
	var first transport.Conn
	dial := func(context.Context) (transport.Conn, error) {
		dials++
		if dials > 1 {
			return nil, fmt.Errorf("network is gone")
		}
		c, err := transport.Dial("tcp", lst.Addr())
		first = c
		return c, err
	}
	sc, err := session.NewConn(dial, session.Config{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rb := NewNetBridge(sc)
	if err := rb.SendData("ping", 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.RecvData("echo", 1); err != nil {
		t.Fatal(err)
	}

	// Kill the only working link; the dialer refuses to come back, so the
	// budget drains and every operation reports the failure.
	first.Close()
	waitDead(t, rb)

	if err := rb.SendData("ping", 9, []float64{1}); err == nil {
		t.Fatal("send succeeded on a dead bridge")
	}
	if _, err := rb.RecvData("echo", 9); err == nil {
		t.Fatal("recv succeeded on a dead bridge")
	}
	if _, err := rb.RecvControl(); err == nil {
		t.Fatal("recv control succeeded on a dead bridge")
	}
	if dials != 3 { // 1 initial + 2 budget
		t.Fatalf("dial attempts = %d, want 3", dials)
	}
}

// waitDead drives sends until the bridge reports permanent failure or the
// deadline passes.
func waitDead(t *testing.T, rb Bridge) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := rb.SendData("probe", 0, nil); err != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("bridge never reported link failure")
}

func TestSessionBridgeInitialDialFailure(t *testing.T) {
	_, err := session.NewConn(func(context.Context) (transport.Conn, error) {
		return nil, errors.New("refused")
	}, session.Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err == nil {
		t.Fatal("constructor swallowed dial failure")
	}
}

// lossyDialer hands out one faulty first connection — its send direction
// blackholes frames after blackholeAfter and hard-fails after failAfter,
// modeling a link whose kernel keeps accepting writes for a while after
// the path is gone — and clean connections after that.
func lossyDialer(addr string, blackholeAfter, failAfter int) session.DialFunc {
	dials := 0
	var mu sync.Mutex
	return func(context.Context) (transport.Conn, error) {
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		c, err := transport.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			return faultconn.Wrap(c, faultconn.Scenario{
				Seed: 11,
				Send: faultconn.Faults{BlackholeAfter: blackholeAfter, FailAfter: failAfter},
			}), nil
		}
		return c, nil
	}
}

// TestSessionBridgeDeliversBlackholedFrame: a frame the first connection
// accepted and then silently lost is not lost to the bridge. The session
// hello consumes the first frame slot, so data frame 2 is blackholed and
// frame 3's send fails the link; the replay buffer re-sends everything
// unacknowledged after the redial, and all three arrive exactly once.
func TestSessionBridgeDeliversBlackholedFrame(t *testing.T) {
	lst := echoServer(t)
	sc, err := session.NewConn(lossyDialer(lst.Addr(), 2, 3), session.Config{MaxAttempts: 5, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rb := NewNetBridge(sc)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := rb.SendData("ping", seq, []float64{float64(seq)}); err != nil {
			t.Fatalf("seq %d send: %v", seq, err)
		}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		got, err := rb.RecvData("echo", seq)
		if err != nil || len(got) != 1 || got[0] != float64(seq) {
			t.Fatalf("seq %d round-trip: %v %v", seq, got, err)
		}
	}
}

// Two hubs joined by a session bridge pair survive losing the physical
// link between connection negotiations: the client side's session
// redials, the server side's session listener absorbs the replacement
// connection without a new Accept, and the next propose/accept plus
// transfer run unchanged.
func TestHubsReconnectAcrossLinkFailure(t *testing.T) {
	const m, n, elems = 2, 3, 12
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lst := session.WrapListener(raw, session.Config{})
	t.Cleanup(func() { lst.Close() })

	var mu sync.Mutex
	var cliConns []transport.Conn
	cliDial := func(context.Context) (transport.Conn, error) {
		c, err := transport.Dial("tcp", lst.Addr())
		if err == nil {
			mu.Lock()
			cliConns = append(cliConns, c)
			mu.Unlock()
		}
		return c, err
	}
	type bres struct {
		b   Bridge
		err error
	}
	srvCh := make(chan bres, 1)
	go func() {
		c, err := lst.Accept()
		if err != nil {
			srvCh <- bres{nil, err}
			return
		}
		srvCh <- bres{NewNetBridge(c), nil}
	}()
	cli, err := session.NewConn(cliDial, session.Config{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cliBridge := NewNetBridge(cli)
	sv := <-srvCh
	if sv.err != nil {
		t.Fatal(sv.err)
	}

	src := NewHub("A", m, cliBridge)
	dst := NewHub("B", n, sv.b)
	if err := src.Register(desc(t, "temp", dad.ReadOnly, blockTpl(t, elems, m))); err != nil {
		t.Fatal(err)
	}
	if err := dst.Register(desc(t, "temp", dad.WriteOnly, blockTpl(t, elems, n))); err != nil {
		t.Fatal(err)
	}

	connect := func(id string) (*Connection, *Connection) {
		var dstConn *Connection
		done := make(chan error, 1)
		go func() {
			var err error
			dstConn, err = dst.Accept()
			done <- err
		}()
		srcConn, err := src.Propose(id, "temp", "temp", AsSource, ConnOpts{})
		if err != nil {
			t.Fatalf("%s propose: %v", id, err)
		}
		if err := <-done; err != nil {
			t.Fatalf("%s accept: %v", id, err)
		}
		return srcConn, dstConn
	}

	sc, dc := connect("epoch1")
	verifyDst(t, dc.local.Template, runTransfer(t, sc, dc, m, n, elems))

	// Sever the physical link between epochs; nothing is in flight, so
	// recovery must be invisible to the hubs.
	mu.Lock()
	cliConns[0].Close()
	mu.Unlock()

	sc, dc = connect("epoch2")
	verifyDst(t, dc.local.Template, runTransfer(t, sc, dc, m, n, elems))

	mu.Lock()
	redials := len(cliConns)
	mu.Unlock()
	if redials < 2 {
		t.Fatal("client bridge never redialed")
	}
}

// echoReply decodes a data frame and encodes its echo on channel "echo",
// nil for anything else; the received frame goes back to the pool.
func echoReply(msg []byte) []byte {
	defer bufpool.PutFrame(msg)
	d := wire.NewDecoder(msg)
	if d.Byte() != netData {
		return nil
	}
	_ = d.String()
	seq := d.Uint64()
	data := d.Float64s()
	if d.Err() != nil {
		return nil
	}
	e := wire.NewEncoder(nil)
	e.PutByte(netData)
	e.PutString("echo")
	e.PutUint64(seq)
	e.PutFloat64s(data)
	return e.Bytes()
}

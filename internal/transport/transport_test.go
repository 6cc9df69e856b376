package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"mxn/internal/bufpool"
)

func testConnPair(t *testing.T, a, b Conn) {
	t.Helper()
	// Both directions, ordering preserved.
	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send([]byte(fmt.Sprintf("a%d", i))); err != nil {
				t.Errorf("a send: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			m, err := a.Recv()
			if err != nil {
				t.Errorf("a recv: %v", err)
				return
			}
			if want := fmt.Sprintf("b%d", i); string(m) != want {
				t.Errorf("a got %q want %q", m, want)
			}
			bufpool.PutFrame(m)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := b.Send([]byte(fmt.Sprintf("b%d", i))); err != nil {
				t.Errorf("b send: %v", err)
				return
			}
		}
		for i := 0; i < n; i++ {
			m, err := b.Recv()
			if err != nil {
				t.Errorf("b recv: %v", err)
				return
			}
			if want := fmt.Sprintf("a%d", i); string(m) != want {
				t.Errorf("b got %q want %q", m, want)
			}
			bufpool.PutFrame(m)
		}
	}()
	wg.Wait()
}

func TestPipe(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	testConnPair(t, a, b)
}

func TestPipeSenderBufferReuse(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	buf := []byte("first")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX") // mutate after send
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m, []byte("first")) {
		t.Errorf("message aliased sender buffer: %q", m)
	}
	bufpool.PutFrame(m)
}

func TestInproc(t *testing.T) {
	l, err := Listen("inproc", "test-ep")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Addr() != "test-ep" {
		t.Errorf("addr = %q", l.Addr())
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var srv Conn
	go func() {
		defer wg.Done()
		srv, err = l.Accept()
	}()
	cli, derr := Dial("inproc", "test-ep")
	if derr != nil {
		t.Fatal(derr)
	}
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	testConnPair(t, cli, srv)
	cli.Close()
	srv.Close()
}

func TestInprocAddressConflictAndRelease(t *testing.T) {
	l, err := Listen("inproc", "conflict")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Listen("inproc", "conflict"); err == nil {
		t.Error("duplicate inproc listen succeeded")
	}
	l.Close()
	// Address is free again after close.
	l2, err := Listen("inproc", "conflict")
	if err != nil {
		t.Errorf("relisten after close: %v", err)
	} else {
		l2.Close()
	}
}

func TestInprocDialNoListener(t *testing.T) {
	if _, err := Dial("inproc", "nobody-home"); err == nil {
		t.Error("dial to missing listener succeeded")
	}
}

func TestTCP(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	var srv Conn
	var aerr error
	go func() {
		defer wg.Done()
		srv, aerr = l.Accept()
	}()
	cli, err := Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if aerr != nil {
		t.Fatal(aerr)
	}
	testConnPair(t, cli, srv)
	cli.Close()
	srv.Close()
}

func TestTCPLargeMessage(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		srv, err := l.Accept()
		if err != nil {
			return
		}
		m, err := srv.Recv()
		if err == nil {
			srv.Send(m) // echo
			bufpool.PutFrame(m)
		}
		srv.Close()
	}()
	cli, err := Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := cli.Send(big); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Error("large message corrupted in transit")
	}
	bufpool.PutFrame(got)
}

func TestCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	a.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("recv after close: %v, want ErrClosed", err)
	}
}

func TestCloseDoesNotDropQueued(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	m, err := b.Recv()
	if err != nil || string(m) != "last words" {
		t.Errorf("queued message lost: %q %v", m, err)
	}
	bufpool.PutFrame(m)
	if _, err := b.Recv(); err != ErrClosed {
		t.Errorf("second recv: %v", err)
	}
}

// TestPipeCloseRacingSendsReturnsFrames: frames queued toward a half that
// closes — including sends that race the close — go back to the pool, so
// a pipe torn down mid-traffic leaves no frame outstanding.
func TestPipeCloseRacingSendsReturnsFrames(t *testing.T) {
	frames := bufpool.FramesOutstanding()
	for round := 0; round < 50; round++ {
		a, b := Pipe()
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if b.Send([]byte("toward a")) != nil {
						return
					}
				}
			}()
		}
		a.Close()
		wg.Wait()
	}
	if d := bufpool.FramesOutstanding() - frames; d != 0 {
		t.Fatalf("%d frames outstanding after closing mid-traffic", d)
	}
}

func TestUnknownNetwork(t *testing.T) {
	if _, err := Listen("udp", "x"); err == nil {
		t.Error("Listen(udp) succeeded")
	}
	if _, err := Dial("carrier-pigeon", "x"); err == nil {
		t.Error("Dial(carrier-pigeon) succeeded")
	}
}

func TestRecvContextTimeout(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func(t *testing.T) (Conn, Conn)
	}{
		{"pipe", func(t *testing.T) (Conn, Conn) { a, b := Pipe(); return a, b }},
		{"tcp", func(t *testing.T) (Conn, Conn) { return tcpPair(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.pair(t)
			defer a.Close()
			defer b.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			_, err := b.RecvContext(ctx)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("recv on silent conn: %v, want ErrTimeout", err)
			}
		})
	}
}

func TestRecvContextCancel(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.RecvContext(ctx)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("recv after cancel: %v, want context.Canceled", err)
	}
}

func TestRecvContextDelivers(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.SendContext(ctx, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	m, err := b.RecvContext(ctx)
	if err != nil || string(m) != "hi" {
		t.Fatalf("recv: %q, %v", m, err)
	}
	bufpool.PutFrame(m)
}

func TestSendContextTimeoutWhenFull(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close() // returns the frames queued toward b
	// Fill the pipe's buffered direction, then the next send must block
	// and time out.
	for i := 0; i < pipeDepth; i++ {
		if err := a.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := a.SendContext(ctx, []byte("overflow")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("send on full pipe: %v, want ErrTimeout", err)
	}
}

func TestDialContextExpired(t *testing.T) {
	// An already-expired context must fail the dial regardless of how the
	// local network treats the address.
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := DialContext(ctx, "tcp", l.Addr()); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dial with expired context: %v, want ErrTimeout", err)
	}
}

func TestTCPRecvAfterTimeoutThenClose(t *testing.T) {
	cli, srv := tcpPair(t)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := cli.RecvContext(ctx); !errorsIsTimeout(err) {
		t.Fatalf("recv: %v, want ErrTimeout", err)
	}
	// The conn survives the timeout for a retry when no frame was cut.
	go srv.Send([]byte("late"))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	m, err := cli.RecvContext(ctx2)
	if err != nil || string(m) != "late" {
		t.Fatalf("recv after timeout: %q, %v", m, err)
	}
	bufpool.PutFrame(m)
	cli.Close()
}

func errorsIsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// tcpPair returns a connected client/server TCP conn pair on loopback.
func tcpPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	l, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	cli, err := Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	return cli, r.c
}

// testVectored drives the one-message SendBatch contract on any pair: a
// message of several segments is received as the single concatenated
// message, regardless of segment boundaries, interleaved with plain sends
// on the same conn.
func testVectored(t *testing.T, a, b Conn) {
	t.Helper()
	p1, p2, p3 := []byte("alpha-"), []byte("beta-"), []byte("gamma")
	if err := a.SendBatch([]net.Buffers{{p1, nil, p2, p3}}, false, nil); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := a.Send([]byte("plain")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.SendBatch([]net.Buffers{{[]byte("solo")}}, false, nil); err != nil {
		t.Fatalf("SendBatch single: %v", err)
	}
	for _, want := range []string{"alpha-beta-gamma", "plain", "solo"} {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(got) != want {
			t.Fatalf("Recv = %q, want %q", got, want)
		}
		bufpool.PutFrame(got)
	}
}

// testOwned drives the SendOwned contract: head+payload arrive as one
// message and the pooled payload is returned exactly once.
func testOwned(t *testing.T, a, b Conn) {
	t.Helper()
	baseline := bufpool.Outstanding()
	payload := bufpool.Get(96)
	for i := range payload {
		payload[i] = byte(i)
	}
	want := append([]byte("head|"), payload...)
	if err := a.SendOwned([]byte("head|"), payload); err != nil {
		t.Fatalf("SendOwned: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Recv = %q, want %q", got, want)
	}
	bufpool.PutFrame(got)
	if d := bufpool.Outstanding() - baseline; d > 0 {
		t.Fatalf("payload not returned to pool: %+d outstanding", d)
	}
}

func TestPipeSendBatchSegments(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	testVectored(t, a, b)
}

func TestPipeSendOwned(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	testOwned(t, a, b)
}

func TestTCPSendBatchSegments(t *testing.T) {
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	testVectored(t, cli, srv)
}

func TestTCPSendOwned(t *testing.T) {
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	testOwned(t, cli, srv)
}

// TestSendBatchDoesNotRetainSegments: like Send, an unowned SendBatch
// must not let the receiver observe later mutations of the caller's
// segments — the pipe copies them into the frame it queues.
func TestSendBatchDoesNotRetainSegments(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	seg := []byte("before")
	if err := a.SendBatch([]net.Buffers{{seg}}, false, nil); err != nil {
		t.Fatal(err)
	}
	copy(seg, "AFTER!")
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before" {
		t.Fatalf("receiver observed sender mutation: %q", got)
	}
	bufpool.PutFrame(got)
}

// TestSendOwnedClosedReturnsPayload: ownership transfers even when the
// send is refused — the conn must Put the payload before reporting the
// error, on both transports.
func TestSendOwnedClosedReturnsPayload(t *testing.T) {
	run := func(t *testing.T, c Conn) {
		c.Close()
		baseline := bufpool.Outstanding()
		if err := c.SendOwned([]byte("h"), bufpool.Get(64)); err == nil {
			t.Fatal("SendOwned on closed conn succeeded")
		}
		if d := bufpool.Outstanding() - baseline; d > 0 {
			t.Fatalf("payload leaked on refused send: %+d outstanding", d)
		}
	}
	t.Run("pipe", func(t *testing.T) {
		a, b := Pipe()
		defer b.Close()
		run(t, a)
	})
	t.Run("tcp", func(t *testing.T) {
		cli, srv := tcpPair(t)
		defer srv.Close()
		run(t, cli)
	})
}

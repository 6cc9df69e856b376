package session

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/faultconn"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// fastCfg keeps reconnect machinery snappy for tests.
func fastCfg() Config {
	return Config{
		MaxAttempts:      20,
		MaxElapsed:       20 * time.Second,
		BaseBackoff:      2 * time.Millisecond,
		MaxBackoff:       50 * time.Millisecond,
		HandshakeTimeout: 5 * time.Second,
	}
}

// startEcho accepts one session from l and echoes every message back
// until the session dies. Returns a done channel.
func startEcho(t *testing.T, l *Listener) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc, err := l.Accept()
		if err != nil {
			return
		}
		for {
			msg, err := sc.Recv()
			if err != nil {
				return
			}
			err = sc.Send(msg)
			bufpool.PutFrame(msg)
			if err != nil {
				return
			}
		}
	}()
	return done
}

// trackedDialer dials addr over TCP and remembers the latest raw conn so
// the test can kill the physical link underneath the session.
type trackedDialer struct {
	mu   sync.Mutex
	addr string
	raw  transport.Conn
}

func (d *trackedDialer) dial(ctx context.Context) (transport.Conn, error) {
	d.mu.Lock()
	addr := d.addr
	d.mu.Unlock()
	c, err := transport.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.raw = c
	d.mu.Unlock()
	return c, nil
}

func (d *trackedDialer) kill() {
	d.mu.Lock()
	raw := d.raw
	d.mu.Unlock()
	if raw != nil {
		raw.Close()
	}
}

func (d *trackedDialer) setAddr(addr string) {
	d.mu.Lock()
	d.addr = addr
	d.mu.Unlock()
}

// recvOne receives one message and returns it to the pool.
func recvOne(t *testing.T, c *Conn) {
	t.Helper()
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	bufpool.PutFrame(m)
}

func TestSessionBasicExchange(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	startEcho(t, l)

	c, err := Dial("tcp", l.Addr(), fastCfg())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("msg-%d", i))
		if err := c.Send(msg); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if string(got) != string(msg) {
			t.Fatalf("echo %d: got %q want %q", i, got, msg)
		}
		bufpool.PutFrame(got)
	}
}

func TestSessionExactlyOnceAcrossFlaps(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	startEcho(t, l)

	d := &trackedDialer{addr: l.Addr()}
	c, err := NewConn(d.dial, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()

	const n = 300
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := c.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			if len(got) != 8 || binary.LittleEndian.Uint64(got) != uint64(i) {
				recvErr <- fmt.Errorf("echo %d: got % x", i, got)
				return
			}
			bufpool.PutFrame(got)
		}
		recvErr <- nil
	}()
	for i := 0; i < n; i++ {
		var msg [8]byte
		binary.LittleEndian.PutUint64(msg[:], uint64(i))
		if err := c.Send(msg[:]); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		if i%37 == 17 {
			d.kill() // sever the physical link mid-stream
		}
	}
	select {
	case err := <-recvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for echoes across flaps")
	}
	if got := mReconnects.Value(); got == 0 {
		t.Log("note: no reconnect recorded (flaps may have raced completion)")
	}
}

func TestSessionBudgetExhaustionOpensCircuit(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	startEcho(t, l)

	cfg := fastCfg()
	cfg.MaxAttempts = 3
	cfg.MaxElapsed = 3 * time.Second
	d := &trackedDialer{addr: l.Addr()}
	c, err := NewConn(d.dial, cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvOne(t, c)

	// Take the whole listener down so every redial is refused.
	l.Close()
	d.kill()

	_, err = c.Recv() // blocks until the circuit opens
	if err == nil {
		t.Fatal("Recv succeeded after listener death")
	}
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Recv error %v does not match ErrPeerLost", err)
	}
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("Recv error %v does not match transport.ErrClosed", err)
	}
	var pl *PeerLostError
	if !errors.As(err, &pl) {
		t.Fatalf("Recv error %T is not *PeerLostError", err)
	}
	if pl.Attempts == 0 {
		t.Fatalf("PeerLostError.Attempts = 0, want > 0: %v", pl)
	}
	if serr := c.Send([]byte("post-mortem")); !errors.Is(serr, ErrPeerLost) {
		t.Fatalf("Send after circuit open: %v, want ErrPeerLost", serr)
	}
	if c.Err() == nil {
		t.Fatal("Err() nil after circuit open")
	}
}

func TestSessionResumeRejectedAfterListenerRestart(t *testing.T) {
	la, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen A: %v", err)
	}
	startEcho(t, la)

	d := &trackedDialer{addr: la.Addr()}
	c, err := NewConn(d.dial, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()
	if err := c.Send([]byte("hi")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvOne(t, c)

	// "Restart" the server: a fresh listener with no session state.
	lb, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen B: %v", err)
	}
	defer lb.Close()
	d.setAddr(lb.Addr())
	la.Close()
	d.kill()

	_, err = c.Recv()
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Recv after restart: %v, want ErrPeerLost", err)
	}
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Recv error %v does not unwrap to *RejectedError", err)
	}
}

func TestSessionSendContextFlowControlTimeout(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	startEcho(t, l)

	cfg := fastCfg()
	cfg.MaxReplayFrames = 4
	cfg.BaseBackoff = 100 * time.Millisecond
	var allowDial atomic.Bool
	allowDial.Store(true)
	d := &trackedDialer{addr: l.Addr()}
	dial := func(ctx context.Context) (transport.Conn, error) {
		if !allowDial.Load() {
			return nil, fmt.Errorf("dial disabled")
		}
		return d.dial(ctx)
	}
	c, err := NewConn(dial, cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()

	allowDial.Store(false) // session can only go down from here
	d.kill()
	for i := 0; i < cfg.MaxReplayFrames; i++ {
		if err := c.Send([]byte("buffered")); err != nil {
			t.Fatalf("buffered Send %d: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err = c.SendContext(ctx, []byte("overflow"))
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("SendContext on full replay buffer: %v, want ErrTimeout", err)
	}
}

func TestSessionListenerCloseUnblocksAccept(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-got:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Accept after Close: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock on Close")
	}
}

// nullConn is a do-nothing physical connection for the allocation guard.
type nullConn struct{}

func (nullConn) Send([]byte) error     { return nil }
func (nullConn) Recv() ([]byte, error) { select {} }
func (nullConn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	for i, m := range msgs {
		if loans != nil && loans[i] != nil {
			loans[i].Release()
		} else if owned && len(m) > 0 {
			bufpool.Put(m[len(m)-1])
		}
	}
	return nil
}
func (nullConn) Close() error                                    { return nil }
func (nullConn) SendContext(ctx context.Context, b []byte) error { return nil }
func (nullConn) RecvContext(ctx context.Context) ([]byte, error) { select {} }

// TestSessionSendSteadyStateZeroAlloc guards the healthy-session hot
// path: Send on an established session draws its frame from bufpool and
// must not allocate once the pool is warm.
func TestSessionSendSteadyStateZeroAlloc(t *testing.T) {
	c := &Conn{cfg: Config{}.withDefaults(), id: 1}
	c.cond = sync.NewCond(&c.mu)
	c.cur = nullConn{}
	c.wconn = c.cur

	msg := make([]byte, 1024)
	drain := func() {
		c.mu.Lock()
		c.ackUpToLocked(c.nextSeq)
		c.mu.Unlock()
	}
	for i := 0; i < 8; i++ { // warm the pool's size class
		if err := c.Send(msg); err != nil {
			t.Fatalf("warmup Send: %v", err)
		}
	}
	drain()
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Send(msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		drain()
	})
	if allocs != 0 {
		t.Fatalf("session Send steady state: %.1f allocs/op, want 0", allocs)
	}
}

// TestSessionBidirectionalFlap drives traffic both ways while the link
// flaps, checking order and exactly-once delivery in each direction.
func TestSessionBidirectionalFlap(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	const n = 200
	serverErr := make(chan error, 1)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			serverErr <- err
			return
		}
		var wg sync.WaitGroup
		var sendErr, recvErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				var msg [8]byte
				binary.LittleEndian.PutUint64(msg[:], uint64(1_000_000+i))
				if err := sc.Send(msg[:]); err != nil {
					sendErr = fmt.Errorf("server send %d: %w", i, err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				got, err := sc.Recv()
				if err != nil {
					recvErr = fmt.Errorf("server recv %d: %w", i, err)
					return
				}
				if binary.LittleEndian.Uint64(got) != uint64(i) {
					recvErr = fmt.Errorf("server recv %d: got %d", i, binary.LittleEndian.Uint64(got))
					return
				}
				bufpool.PutFrame(got)
			}
		}()
		wg.Wait()
		if sendErr != nil {
			serverErr <- sendErr
			return
		}
		serverErr <- recvErr
	}()

	d := &trackedDialer{addr: l.Addr()}
	c, err := NewConn(d.dial, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()

	clientRecv := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := c.Recv()
			if err != nil {
				clientRecv <- fmt.Errorf("client recv %d: %w", i, err)
				return
			}
			if binary.LittleEndian.Uint64(got) != uint64(1_000_000+i) {
				clientRecv <- fmt.Errorf("client recv %d: got %d", i, binary.LittleEndian.Uint64(got))
				return
			}
			bufpool.PutFrame(got)
		}
		clientRecv <- nil
	}()
	for i := 0; i < n; i++ {
		var msg [8]byte
		binary.LittleEndian.PutUint64(msg[:], uint64(i))
		if err := c.Send(msg[:]); err != nil {
			t.Fatalf("client send %d: %v", i, err)
		}
		if i%41 == 13 {
			d.kill()
		}
	}
	deadline := time.After(30 * time.Second)
	for _, ch := range []chan error{serverErr, clientRecv} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("timed out waiting for bidirectional flap traffic")
		}
	}
}

// TestSessionOverFlappingFaultconn composes the session layer with the
// faultconn Flap scenario: every physical conn the listener accepts dies
// after a couple dozen frames, yet the session delivers everything
// exactly once by redialing and replaying.
func TestSessionOverFlappingFaultconn(t *testing.T) {
	inner, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	fl := faultconn.WrapListener(inner, faultconn.Scenario{Seed: 42, FlapAfter: 25})
	l := WrapListener(fl, fastCfg())
	defer l.Close()
	startEcho(t, l)

	c, err := NewConn(func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, "tcp", inner.Addr())
	}, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()

	const n = 200
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := c.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			if binary.LittleEndian.Uint64(got) != uint64(i) {
				recvErr <- fmt.Errorf("echo %d: got %d", i, binary.LittleEndian.Uint64(got))
				return
			}
			bufpool.PutFrame(got)
		}
		recvErr <- nil
	}()
	for i := 0; i < n; i++ {
		var msg [8]byte
		binary.LittleEndian.PutUint64(msg[:], uint64(i))
		if err := c.Send(msg[:]); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	select {
	case err := <-recvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("timed out echoing across flapping conns")
	}
}

// TestSessionBudgetCountsOnlyStalledAttempts: the redial budget bounds a
// continuous outage, not a flapping link that keeps carrying frames. The
// backlog here is larger than one incarnation admits — every replacement
// conn flaps after the handshake and four replayed frames, so every
// install fails — yet each attempt moves the peer's delivered offset, and
// the session must keep going until the backlog is through instead of
// opening the circuit after MaxAttempts failed installs.
func TestSessionBudgetCountsOnlyStalledAttempts(t *testing.T) {
	inner, err := transport.Listen("inproc", t.Name())
	if err != nil {
		t.Fatal(err)
	}
	l := WrapListener(inner, fastCfg())
	defer l.Close()

	const n = 40
	recvErr := make(chan error, 1)
	go func() {
		sc, err := l.Accept()
		if err != nil {
			recvErr <- err
			return
		}
		for i := 0; i < n; i++ {
			got, err := sc.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			v := binary.LittleEndian.Uint64(got)
			bufpool.PutFrame(got)
			if v != uint64(i) {
				recvErr <- fmt.Errorf("Recv %d: got %d", i, v)
				return
			}
		}
		recvErr <- nil
	}()

	// The first conn is clean and is killed below; every redial waits for
	// the backlog to be queued, then gets a conn that flaps after six
	// messages: hello, welcome and four data frames.
	var first transport.Conn
	release := make(chan struct{})
	var dials atomic.Int32
	cfg := fastCfg()
	cfg.MaxAttempts = 3
	c, err := NewConn(func(ctx context.Context) (transport.Conn, error) {
		nc, err := transport.DialContext(ctx, "inproc", t.Name())
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			first = nc
			return nc, nil
		}
		<-release
		return faultconn.Wrap(nc, faultconn.Scenario{FlapAfter: 6}), nil
	}, cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()

	first.Close()
	for i := 0; i < n; i++ {
		var msg [8]byte
		binary.LittleEndian.PutUint64(msg[:], uint64(i))
		if err := c.Send(msg[:]); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	close(release)

	deadline := time.After(20 * time.Second)
	for {
		select {
		case err := <-recvErr:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatalf("backlog not delivered after %d dials", dials.Load())
		case <-time.After(5 * time.Millisecond):
			if err := c.Err(); err != nil {
				t.Fatalf("circuit opened while every attempt delivered frames (%d dials): %v", dials.Load(), err)
			}
		}
	}
}

// diesAfterHandshake is a physical connection that completes the resume
// handshake and then fails its first pump read — before the install that
// is still replaying over it (its Send waits for that) can promote it.
type diesAfterHandshake struct {
	transport.Conn
	once   sync.Once
	failed chan struct{}
}

func (c *diesAfterHandshake) Recv() ([]byte, error) {
	c.Conn.Close()
	c.once.Do(func() { close(c.failed) })
	return nil, transport.ErrClosed
}

func (c *diesAfterHandshake) Send([]byte) error {
	<-c.failed
	time.Sleep(50 * time.Millisecond) // let the pump report the failure
	return nil
}

// SendBatch is the session writer's call; it waits like Send.
func (c *diesAfterHandshake) SendBatch([]net.Buffers, bool, []wire.Loan) error { return c.Send(nil) }

// TestSessionConnLostDuringInstallIsRedialed: a connection that dies
// between the resume handshake and its promotion must fail the install so
// the redial loop tries again. It used to be promoted dead — its pump had
// already exited, reporting a failure that was ignored because the conn
// was not live yet — and a session with nothing to send then waited on it
// forever while the peer's resume window ran out.
func TestSessionConnLostDuringInstallIsRedialed(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	startEcho(t, l)

	d := &trackedDialer{addr: l.Addr()}
	var dials atomic.Int32
	c, err := NewConn(func(ctx context.Context) (transport.Conn, error) {
		nc, err := d.dial(ctx)
		if err == nil && dials.Add(1) == 2 {
			return &diesAfterHandshake{Conn: nc, failed: make(chan struct{})}, nil
		}
		return nc, err
	}, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}
	defer c.Close()
	// One round trip first, so the listener side is fully established.
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	recvOne(t, c)

	d.kill()
	if err := c.Send([]byte("sent across the outage")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := c.RecvContext(ctx)
	if err != nil || string(got) != "sent across the outage" {
		t.Fatalf("echo across the outage: %q, %v (after %d dials)", got, err, dials.Load())
	}
	bufpool.PutFrame(got)
	if n := dials.Load(); n < 3 {
		t.Errorf("session recovered in %d dials; the second connection dies during install, so it takes three", n)
	}
}

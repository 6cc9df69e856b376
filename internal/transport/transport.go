// Package transport provides message-oriented connections between
// component framework instances. Two implementations are included: an
// in-memory "inproc" transport for co-located frameworks (the out-of-band
// channel between paired M×N components in Figure 3 of the paper), and a
// TCP transport (stdlib net) for genuinely distributed frameworks.
//
// Both expose the same contract: a Conn carries whole messages ([]byte
// frames) reliably and in order in each direction, full-duplex.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
	"mxn/internal/wire"
)

// Connection-level instruments. Frame and byte counts for TCP conns are
// accounted by internal/wire (wire.frames_*, wire.bytes_*); this layer
// adds dial/accept activity, inproc message traffic, deadline expiries and
// the number of open TCP conns.
var (
	mDialsTCP      = obs.Default().Counter("transport.dials_tcp")
	mDialsInproc   = obs.Default().Counter("transport.dials_inproc")
	mAccepts       = obs.Default().Counter("transport.accepts")
	mDeadlineHits  = obs.Default().Counter("transport.deadline_hits")
	mInprocSent    = obs.Default().Counter("transport.inproc_msgs_sent")
	mInprocRecv    = obs.Default().Counter("transport.inproc_msgs_recv")
	mInprocBytes   = obs.Default().Counter("transport.inproc_bytes_sent")
	mTCPConnsOpen  = obs.Default().Gauge("transport.tcp_conns_open")
	mInprocPending = obs.Default().Gauge("transport.inproc_msgs_inflight")
)

// ErrClosed is returned by operations on a closed Conn or Listener.
var ErrClosed = errors.New("transport: closed")

// ErrTimeout is returned (wrapped) when a context deadline expires inside
// SendContext, RecvContext or DialContext. It is distinct from ErrClosed so
// callers can tell a slow peer from a dead link and decide whether to retry.
var ErrTimeout = errors.New("transport: timeout")

// Conn is a reliable, ordered, full-duplex message connection.
type Conn interface {
	// Send transmits one message. It may block for flow control.
	Send(msg []byte) error
	// SendBatch is the batch form of Send, and Send is its one-message
	// case: it transmits one message per element of msgs, in order —
	// message i is the concatenation of msgs[i] — and hands them all to
	// the link in one call. TCP writes every frame with one writev, the
	// pipe queues one frame per message, faultconn rolls its faults per
	// message, and a session sequences each message as its own frame and
	// writes them together. With owned unset nothing of msgs is retained
	// past the call. With owned set the last segment of every message is
	// a bufpool buffer (or nil) that belongs to the conn from the call on,
	// whatever it returns, and the conn returns it to the pool exactly
	// once when the bytes can no longer be needed: right after the
	// physical write on TCP, after the copy into the queued frame on a
	// pipe, after the peer acknowledges the frame (or the session tears
	// down) on a session — a refused or failed batch returns every one of
	// them at once. This is what lets comm lend the transfer engine's and
	// PRMI's pack buffers to the wire instead of every layer re-copying
	// them.
	//
	// loans, when non-nil, lends payloads by reference: a message i with
	// loans[i] set is msgs[i] (its head, only read during the call; owned
	// does not apply to it) followed by loans[i].Segs(), views of the
	// lender's memory. The conn reads them until it releases the loan,
	// exactly once on every outcome: right after the physical write on
	// TCP, after the copy into the queued frame on a pipe or in faultconn,
	// after the peer acknowledges the frame (or the session tears down) on
	// a session — and at once when the send is refused.
	SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error
	// Recv blocks until the next message arrives. The message is a pooled
	// frame (bufpool.GetFrame) that the caller owns from then on: it
	// returns the frame, or any prefix of it, with bufpool.PutFrame once
	// nothing views its bytes any more.
	Recv() ([]byte, error)
	// SendContext is Send bounded by ctx: expiry reports ErrTimeout
	// (wrapped), cancellation reports ctx.Err(). A TCP conn abandoned
	// mid-frame by an expired deadline is poisoned for further framed
	// traffic and should be closed.
	SendContext(ctx context.Context, msg []byte) error
	// RecvContext is Recv bounded by ctx, with the same error contract as
	// SendContext and the same ownership of the returned frame.
	RecvContext(ctx context.Context) ([]byte, error)
	// Close releases the connection. Pending and future operations on
	// either end fail with ErrClosed (or io errors for TCP).
	Close() error
}

// ctxErr maps a finished context to the transport error contract.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
		mDeadlineHits.Inc()
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return ctx.Err()
}

// mapNetErr rewrites net-level timeouts into the transport error contract.
func mapNetErr(err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		mDeadlineHits.Inc()
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// Listener accepts incoming connections at an address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr returns the address peers should Dial.
	Addr() string
}

// Listen opens a listener. network is "inproc" or "tcp". For inproc the
// address is an arbitrary name unique within the process; for tcp it is a
// host:port (use "127.0.0.1:0" to pick a free port, then read Addr).
func Listen(network, addr string) (Listener, error) {
	switch network {
	case "inproc":
		return listenInproc(addr)
	case "tcp":
		nl, err := net.Listen("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &tcpListener{nl: nl}, nil
	default:
		return nil, fmt.Errorf("transport: unknown network %q", network)
	}
}

// Dial connects to a listener.
func Dial(network, addr string) (Conn, error) {
	return DialContext(context.Background(), network, addr)
}

// DialContext connects to a listener, bounded by ctx. Deadline expiry
// reports ErrTimeout (wrapped).
func DialContext(ctx context.Context, network, addr string) (Conn, error) {
	switch network {
	case "inproc":
		mDialsInproc.Inc()
		return dialInproc(ctx, addr)
	case "tcp":
		var d net.Dialer
		mDialsTCP.Inc()
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, mapNetErr(err)
		}
		return newTCPConn(nc), nil
	default:
		return nil, fmt.Errorf("transport: unknown network %q", network)
	}
}

// Pipe returns a connected pair of in-memory Conns, useful for tests and
// for wiring paired M×N components inside one process without naming an
// address.
func Pipe() (Conn, Conn) {
	a2b := make(chan []byte, pipeDepth)
	b2a := make(chan []byte, pipeDepth)
	closed := make(chan struct{})
	var once sync.Once
	closeFn := func() { once.Do(func() { close(closed) }) }
	a := &chanConn{out: a2b, in: b2a, closed: closed, close: closeFn}
	b := &chanConn{out: b2a, in: a2b, closed: closed, close: closeFn}
	a.peer, b.peer = b, a
	return a, b
}

// pipeDepth is the per-direction buffering of inproc connections. Senders
// block when the peer falls this many messages behind, providing the same
// back-pressure a TCP socket buffer would.
const pipeDepth = 64

// chanConn is a channel-backed Conn half. Every queued message is a
// pooled frame, copied in by the sending half and owned by whoever
// receives it; frames no receiver will take are returned to the pool by
// the half that closed (its own inbound queue) or, for a send that lost
// the race with that close, by the sender.
type chanConn struct {
	out    chan<- []byte
	in     <-chan []byte
	closed chan struct{}
	close  func()
	peer   *chanConn
	gone   atomic.Bool // this half was closed: nothing will receive on in
}

func (c *chanConn) Send(msg []byte) error {
	return c.SendContext(context.Background(), msg)
}

func (c *chanConn) SendContext(ctx context.Context, msg []byte) error {
	seg := [1][]byte{msg}
	one := [1]net.Buffers{seg[:]}
	return c.send(ctx, one[:], false, nil)
}

// SendBatch queues one frame per message, in order. Each message is
// flattened into the one frame copy a pipe makes, and an owned payload or
// a loan is returned at once — a pipe delivers by reference, so the bytes
// are private after that copy.
func (c *chanConn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	return c.send(context.Background(), msgs, owned, loans)
}

// send is the pipe's one send path: sendSegs per message, the owned
// payloads and loans of messages after a failure returned unsent.
func (c *chanConn) send(ctx context.Context, msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	var err error
	for i, segs := range msgs {
		var own []byte
		var loan wire.Loan
		if loans != nil {
			loan = loans[i]
		}
		if owned && loan == nil && len(segs) > 0 {
			own = segs[len(segs)-1]
		}
		if err == nil {
			err = c.sendSegs(ctx, segs, own, loan)
		} else {
			bufpool.Put(own)
			if loan != nil {
				loan.Release()
			}
		}
	}
	return err
}

// sendSegs copies the concatenation of segs (and of loan's segments) into
// a pooled frame and queues it for the peer; owned, when non-nil, is a
// pooled buffer the call returns to the pool whatever happens, and loan,
// when non-nil, is released whatever happens.
func (c *chanConn) sendSegs(ctx context.Context, segs [][]byte, owned []byte, loan wire.Loan) error {
	defer bufpool.Put(owned)
	var lent net.Buffers
	if loan != nil {
		defer loan.Release()
		lent = loan.Segs()
	}
	// Check closure first: with buffer space free the main select would
	// otherwise pick randomly between the send and the closed arm, making
	// Send on a closed pipe nondeterministic.
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	for _, s := range lent {
		total += len(s)
	}
	frame := bufpool.GetFrame(total)
	off := 0
	for _, s := range segs {
		off += copy(frame[off:], s)
	}
	for _, s := range lent {
		off += copy(frame[off:], s)
	}
	select {
	case <-c.closed:
		bufpool.PutFrame(frame)
		return ErrClosed
	case c.out <- frame:
		mInprocSent.Inc()
		mInprocBytes.Add(uint64(total))
		mInprocPending.Add(1)
		if c.peer.gone.Load() {
			c.peer.drain()
		}
		return nil
	case <-ctx.Done():
		bufpool.PutFrame(frame)
		return ctxErr(ctx)
	}
}

// drain returns every frame queued on c's inbound side to the pool.
func (c *chanConn) drain() {
	for {
		select {
		case m := <-c.in:
			mInprocPending.Add(-1)
			bufpool.PutFrame(m)
		default:
			return
		}
	}
}

func (c *chanConn) Recv() ([]byte, error) {
	return c.RecvContext(context.Background())
}

func (c *chanConn) RecvContext(ctx context.Context) ([]byte, error) {
	select {
	case m := <-c.in:
		mInprocRecv.Inc()
		mInprocPending.Add(-1)
		return m, nil
	case <-c.closed:
		// Drain anything already queued before reporting closure, so a
		// close racing the last message does not drop it.
		select {
		case m := <-c.in:
			mInprocRecv.Inc()
			mInprocPending.Add(-1)
			return m, nil
		default:
			return nil, ErrClosed
		}
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
}

// Close closes both halves. Frames already queued toward the peer stay
// receivable; frames queued toward this half go back to the pool.
func (c *chanConn) Close() error {
	c.gone.Store(true)
	c.close()
	c.drain()
	return nil
}

// inproc listener registry.
var inprocMu sync.Mutex
var inprocListeners = map[string]*inprocListener{}

type inprocListener struct {
	addr    string
	backlog chan Conn
	closed  chan struct{}
	once    sync.Once
}

func listenInproc(addr string) (Listener, error) {
	inprocMu.Lock()
	defer inprocMu.Unlock()
	if _, ok := inprocListeners[addr]; ok {
		return nil, fmt.Errorf("transport: inproc address %q already in use", addr)
	}
	l := &inprocListener{addr: addr, backlog: make(chan Conn, 16), closed: make(chan struct{})}
	inprocListeners[addr] = l
	return l, nil
}

func dialInproc(ctx context.Context, addr string) (Conn, error) {
	inprocMu.Lock()
	l, ok := inprocListeners[addr]
	inprocMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no inproc listener at %q", addr)
	}
	a, b := Pipe()
	select {
	case l.backlog <- b:
		return a, nil
	case <-l.closed:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctxErr(ctx)
	}
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		mAccepts.Inc()
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		inprocMu.Lock()
		delete(inprocListeners, l.addr)
		inprocMu.Unlock()
	})
	return nil
}

func (l *inprocListener) Addr() string { return l.addr }

// tcpConn frames messages over a net.Conn using the wire framing. Every
// send is one wire.WriteFramesLent call — one writev — and every receive
// reads through a read-ahead slab of readAhead bytes, which Close releases.
type tcpConn struct {
	nc   net.Conn
	rd   *wire.FrameReader // guarded by rMu
	sMu  sync.Mutex        // serializes writers
	rMu  sync.Mutex        // serializes readers
	once sync.Once
}

// readAhead is a TCP conn's receive slab: one read returns every frame of
// up to this many bytes the socket holds, so the frames a peer wrote with
// one writev usually arrive with one read, and each is handed up where it
// was read, as a view of the slab. A larger frame costs at most this many
// bytes of copying out of the slab; the rest of it is read straight into
// its pooled frame or placed. 128 KiB holds a prmi_tcp round's 66 KiB
// batch whole, where 64 KiB split it across two reads.
const readAhead = 128 << 10

func newTCPConn(nc net.Conn) *tcpConn {
	mTCPConnsOpen.Add(1)
	return &tcpConn{nc: nc, rd: wire.NewFrameReader(nc, readAhead)}
}

func (c *tcpConn) Send(msg []byte) error {
	return c.SendContext(context.Background(), msg)
}

// SendBatch hands every frame header and segment of the batch — lent
// segments included — to the socket in one writev (wire.WriteFramesLent),
// so no payload byte is copied on the way out, and releases owned payloads
// and loans as soon as the write returns, since TCP has consumed the bytes
// by then.
func (c *tcpConn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	return c.send(context.Background(), msgs, owned, loans)
}

func (c *tcpConn) SendContext(ctx context.Context, msg []byte) error {
	seg := [1][]byte{msg}
	one := [1]net.Buffers{seg[:]}
	return c.send(ctx, one[:], false, nil)
}

// send is the TCP conn's one send path.
func (c *tcpConn) send(ctx context.Context, msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	if owned || loans != nil {
		defer releaseBatch(msgs, owned, loans)
	}
	c.sMu.Lock()
	defer c.sMu.Unlock()
	if ctx.Done() == nil {
		return wire.WriteFramesLent(c.nc, msgs, loans)
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(ctx)
	}
	defer c.armDeadline(ctx, c.nc.SetWriteDeadline)()
	return finishCtx(ctx, wire.WriteFramesLent(c.nc, msgs, loans))
}

// releaseBatch gives back what a batch lent a conn that is done with it:
// every loan, and with owned, the payload of every message without one.
func releaseBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) {
	for i, segs := range msgs {
		switch {
		case loans != nil && loans[i] != nil:
			loans[i].Release()
		case owned && len(segs) > 0:
			bufpool.Put(segs[len(segs)-1])
		}
	}
}

// SetPlacer has frames of wire.PlaceMin bytes or more offered to p as
// they arrive, to be read straight into the memory a receiver posted for
// them (see wire.Placer); nil stops it. The conn is the claims' kicker.
func (c *tcpConn) SetPlacer(p wire.Placer) { c.rd.SetPlacer(p, c) }

// Kick forces a reader inside a placed frame off it: the read fails with
// a timeout and the conn's stream is lost.
func (c *tcpConn) Kick() { c.nc.SetReadDeadline(time.Unix(1, 0)) }

// TakePlaced returns the placement of the frame the last Recv returned,
// nil when it was read whole into its pooled frame. The goroutine that
// called that Recv calls it, before its next Recv.
func (c *tcpConn) TakePlaced() wire.Placement { return c.rd.TakePlaced() }

func (c *tcpConn) Recv() ([]byte, error) {
	c.rMu.Lock()
	defer c.rMu.Unlock()
	return c.rd.ReadFrame()
}

func (c *tcpConn) RecvContext(ctx context.Context) ([]byte, error) {
	c.rMu.Lock()
	defer c.rMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, ctxErr(ctx)
	}
	defer c.armDeadline(ctx, c.nc.SetReadDeadline)()
	msg, err := c.rd.ReadFrame()
	return msg, finishCtx(ctx, err)
}

// finishCtx resolves the error of a deadline-bounded socket operation: a
// finished context takes precedence (an AfterFunc-forced deadline shows up
// as a net timeout even when the cause was cancellation, not expiry).
func finishCtx(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctxErr(ctx)
	}
	return mapNetErr(err)
}

// armDeadline applies ctx's deadline to one direction of the socket and
// registers cancellation to abort an in-flight operation. The returned
// func clears both; it must run before the direction's mutex is released.
// An operation abandoned mid-frame leaves the stream unframeable — callers
// that time out should close the conn and redial.
func (c *tcpConn) armDeadline(ctx context.Context, set func(time.Time) error) func() {
	if dl, ok := ctx.Deadline(); ok {
		set(dl)
	}
	// The AfterFunc callback can run concurrently with the cleanup below
	// (stop() returns false once the callback has started); without the
	// flag its forced past-deadline could land after the reset and stick
	// to the socket, failing every later operation instantly.
	var mu sync.Mutex
	done := false
	stop := context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			// Force any blocked read/write to return immediately.
			set(time.Unix(1, 0))
		}
	})
	return func() {
		stop()
		mu.Lock()
		defer mu.Unlock()
		done = true
		set(time.Time{})
	}
}

// Close closes the socket, which ends a Recv in progress, then releases
// the reader's slab; the frames Recv handed up stay valid until returned.
func (c *tcpConn) Close() error {
	var err error
	c.once.Do(func() {
		mTCPConnsOpen.Add(-1)
		err = c.nc.Close()
		c.rMu.Lock()
		c.rd.Close()
		c.rMu.Unlock()
	})
	return err
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	mAccepts.Inc()
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

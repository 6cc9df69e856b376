// Package session provides resumable, exactly-once connections over
// internal/transport: the self-healing link substrate beneath the M×N
// out-of-band bridge, the PRMI conn mesh, and remote comm mailboxes.
//
// A session.Conn wraps a physical transport.Conn and a way to get a new
// one (a dial function on the active side, a Listener re-attach on the
// passive side). Every frame is sequence-numbered and held in a bounded
// replay buffer until the peer's cumulative acknowledgement — piggybacked
// on data frames, or standalone when traffic is one-sided — covers it.
// When the physical connection fails, the active side redials with
// jittered exponential backoff, the two sides exchange resume offsets in
// a small handshake, and each replays the frames the other has not
// delivered. Duplicates created by replay are dropped by sequence number,
// so across arbitrary reconnects every frame sent is delivered to the
// peer's application exactly once, in order.
//
// Failure stays a recoverable event until the attempt/deadline budget in
// Config is exhausted; then the circuit opens and every pending and
// future operation reports a *PeerLostError (matching ErrPeerLost and
// transport.ErrClosed), which hands the failure to the liveness and
// fenced-transfer machinery above — link death escalates to rank death
// only when the link is genuinely unrecoverable.
//
// This is the transparent-reconnection idiom of distributed middleware
// for long-running parallel applications; the session layer exists so
// that a multi-tenant coupling daemon can survive the connection churn a
// real network produces without losing or duplicating a single frame.
package session

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// Session instruments, registered in the process-default registry (and so
// published through expvar wherever obs.PublishExpvar is mounted).
var (
	mConnsOpen         = obs.Default().Gauge("session.conns_open")
	mReconnects        = obs.Default().Counter("session.reconnects")
	mReconnectAttempts = obs.Default().Counter("session.reconnect_attempts")
	mReconnectFails    = obs.Default().Counter("session.reconnect_failures")
	mReattaches        = obs.Default().Counter("session.reattaches")
	mFramesReplayed    = obs.Default().Counter("session.frames_replayed")
	mDupDropped        = obs.Default().Counter("session.frames_dup_dropped")
	mAcksSent          = obs.Default().Counter("session.acks_sent")
	mPeerLost          = obs.Default().Counter("session.peer_lost")
	mRejects           = obs.Default().Counter("session.rejects")
	mReplayDepth       = obs.Default().Gauge("session.replay_depth")
	mLentFrames        = obs.Default().Counter("session.lent_frames")
	mReclaims          = obs.Default().Counter("session.lent_reclaimed")
	mPlacedSpoiled     = obs.Default().Counter("session.placed_spoiled")
)

// ErrPeerLost is matched (via errors.Is) by the *PeerLostError every
// operation returns once a session's reconnect budget is exhausted.
var ErrPeerLost = errors.New("session: peer lost")

// PeerLostError reports an unrecoverable session: the reconnect budget
// was spent without re-establishing the link. It matches both ErrPeerLost
// and transport.ErrClosed, so layers written against the transport error
// contract (the bridge, comm remote peers and, through them, PRMI's
// ErrLinkDown) see a dead link without importing this package.
type PeerLostError struct {
	SessionID uint64
	Attempts  int           // reconnect attempts spent (0: passive side)
	Elapsed   time.Duration // time since the link went down
	Cause     error         // last underlying failure
}

func (e *PeerLostError) Error() string {
	return fmt.Sprintf("session %#x: peer lost after %d reconnect attempts over %v: %v",
		e.SessionID, e.Attempts, e.Elapsed.Round(time.Millisecond), e.Cause)
}

func (e *PeerLostError) Unwrap() error { return e.Cause }

func (e *PeerLostError) Is(target error) bool {
	return target == ErrPeerLost || target == transport.ErrClosed
}

// RejectedError reports that the peer's listener refused to resume the
// session (typically because it restarted and lost the session state).
// Resuming without state would void the exactly-once guarantee, so this
// is terminal: the circuit opens immediately instead of burning the
// remaining reconnect budget.
type RejectedError struct {
	SessionID uint64
	Reason    string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("session %#x: peer rejected resume: %s", e.SessionID, e.Reason)
}

// DialFunc obtains a fresh physical connection. It is called for the
// initial connect and for every reconnect attempt; ctx carries the
// per-attempt handshake timeout.
type DialFunc func(ctx context.Context) (transport.Conn, error)

// Config tunes a session. The zero value selects the defaults noted on
// each field.
type Config struct {
	// MaxAttempts bounds reconnect attempts per outage (default 8). The
	// budget resets once a reconnect succeeds, or fails after frames
	// crossed: a flaky link that keeps coming back keeps getting repaired;
	// only a continuous outage opens the circuit.
	MaxAttempts int
	// MaxElapsed bounds the wall-clock length of one outage (default
	// 30s). On the passive (listener) side, where no redial is possible,
	// it is the resume window: how long a downed session waits for the
	// peer to come back before opening the circuit.
	MaxElapsed time.Duration
	// BaseBackoff and MaxBackoff shape the jittered exponential backoff
	// between reconnect attempts (defaults 20ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HandshakeTimeout bounds each dial + hello/welcome exchange
	// (default 5s).
	HandshakeTimeout time.Duration
	// MaxReplayFrames and MaxReplayBytes bound the replay buffer of
	// unacknowledged sent frames (defaults 1024 frames, 8 MiB). Send
	// blocks when the buffer is full — the session's flow control. A
	// single frame larger than MaxReplayBytes is always admitted (alone).
	MaxReplayFrames int
	MaxReplayBytes  int
}

func (c Config) withDefaults() Config {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	defD := func(v *time.Duration, d time.Duration) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.MaxAttempts, 8)
	defD(&c.MaxElapsed, 30*time.Second)
	defD(&c.BaseBackoff, 20*time.Millisecond)
	defD(&c.MaxBackoff, 2*time.Second)
	defD(&c.HandshakeTimeout, 5*time.Second)
	def(&c.MaxReplayFrames, 1024)
	def(&c.MaxReplayBytes, 8<<20)
	return c
}

// ackEvery and ackBytes are how much one-sided traffic the receive side
// absorbs before volunteering a standalone acknowledgement: 16 frames or
// 256 KiB, each clamped to half the corresponding replay bound so a
// silent receiver can never starve the peer's replay buffer into a
// deadlock.
func (c Config) ackEvery() int { return max(min(16, c.MaxReplayFrames/2), 1) }
func (c Config) ackBytes() int { return max(min(256<<10, c.MaxReplayBytes/2), 1) }

// replayEntry is one unacknowledged sent frame, keyed by its sequence
// number. own is a pooled buffer holding the message (Send) or the
// caller's head bytes (an owned or lent message), followed by the data
// trailer; data, when non-nil, is a pooled payload buffer retained by
// reference rather than re-copied into the frame, and loan, when non-nil,
// a lent payload of lent bytes retained the same way. The frame's wire
// bytes are own's message part, then data or the loan's segments, then
// own's trailer. Both buffers return to the pool, and the loan is
// released, exactly once: when the peer's cumulative ack covers the entry
// or the session tears down.
type replayEntry struct {
	seq  uint64
	own  []byte
	data []byte
	loan wire.Loan
	lent int
}

// size is the entry's contribution to the replay-byte budget.
func (e replayEntry) size() int { return len(e.own) + len(e.data) + e.lent }

// replayRing is a circular queue of replay entries. It starts small and
// doubles when full — flow control bounds its depth at MaxReplayFrames —
// so a session holds memory for the depth it reaches rather than for its
// bound, and once there, pushes and pops never allocate.
type replayRing struct {
	ents []replayEntry
	head int // index of the oldest entry
	n    int
}

func (r *replayRing) len() int { return r.n }

// at returns the i-th oldest entry.
func (r *replayRing) at(i int) replayEntry { return *r.ptr(i) }

// ptr returns the i-th oldest entry in place.
func (r *replayRing) ptr(i int) *replayEntry { return &r.ents[(r.head+i)%len(r.ents)] }

// push appends an entry, growing the ring when it is full.
func (r *replayRing) push(e replayEntry) {
	if r.n == len(r.ents) {
		ents := make([]replayEntry, max(16, 2*len(r.ents)))
		for i := 0; i < r.n; i++ {
			ents[i] = r.at(i)
		}
		r.ents, r.head = ents, 0
	}
	r.ents[(r.head+r.n)%len(r.ents)] = e
	r.n++
}

// popFront removes and returns the oldest entry.
func (r *replayRing) popFront() replayEntry {
	e := r.ents[r.head]
	r.ents[r.head] = replayEntry{}
	r.head = (r.head + 1) % len(r.ents)
	r.n--
	return e
}

// Conn is a resumable, exactly-once connection. It implements
// transport.Conn and may be used from several goroutines in each
// direction: frames are sequenced in the order sends reach the session,
// and the one writer puts them on the wire in that order whichever
// goroutine sent them.
type Conn struct {
	cfg  Config
	id   uint64
	dial DialFunc  // nil on the passive (listener-owned) side
	lst  *Listener // non-nil on the passive side

	// smu serializes the sequencing of sends and guards their entry
	// scratch; it is taken before wmu and mu, and released before a send's
	// own write. wmu serializes writes to the physical connection:
	// the one writer (write), and standalone acks. It is taken before mu,
	// never after, and mu is never held across a blocking operation.
	smu  sync.Mutex
	ents []replayEntry
	wmu  sync.Mutex
	// Writer scratch, guarded by wmu: the entries of one write and their
	// segments.
	wbatch []replayEntry
	segs   [][]byte
	iovs   []net.Buffers
	// attachMu serializes passive re-attaches so two racing resumes of
	// the same session cannot interleave their replays.
	attachMu sync.Mutex

	mu      sync.Mutex
	cond    *sync.Cond
	cur     transport.Conn // live physical conn; nil while down
	gen     uint64         // incarnation counter, bumped per install
	closed  bool
	dead    error // *PeerLostError once the circuit opens
	counted bool  // conns_open gauge accounting

	// Sender state: frames buffered until the peer acknowledges them.
	// wconn is the physical conn the writer writes to — the live one, or
	// the one an install is catching up — and nil while down; written is
	// the highest sequence number written on it, so the entries after it
	// in the ring are sequenced but not yet written.
	nextSeq     uint64
	replay      replayRing
	replayBytes int
	wconn       transport.Conn
	written     uint64
	// While an install's replay is in flight, acknowledged buffers are
	// parked here instead of returned to the pool: an ack racing the
	// replay must not recycle a buffer the replay is still writing to
	// the wire.
	installing  bool
	pendingFree [][]byte
	pendingLent []wire.Loan
	// placer is where the physical conns offer large frames as they
	// arrive (SetPlacer); nil places nothing.
	placer wire.Placer
	// The frames the writer is writing, first and last sequence numbers
	// (0 when none), and the conn it writes them to: Reclaim must not copy
	// a loan away from under a write.
	wlo, whi uint64
	wbusy    transport.Conn
	wends    uint64 // writes ended, so a Reclaim can wait for the next
	reclaims int    // Reclaim calls waiting for a write to end
	// The conn an install is promoting, and the error its pump reported
	// if it died before the promotion: connFailed only recovers from the
	// loss of the live conn, so without this a conn that fails between
	// handshake and promotion would be installed dead, with no reader
	// left to notice.
	incoming    transport.Conn
	incomingErr error

	// Receiver state. lastDelivered is the cumulative acknowledgement we
	// owe the peer: the highest in-order sequence enqueued to the inbox.
	// The inbox holds received frames (prefixes of the transport's pooled
	// frames) until Recv hands them out or Close returns them.
	lastDelivered uint64
	recvSinceAck  int
	bytesSinceAck int
	inbox         [][]byte
	inboxHead     int

	downTimer *time.Timer // passive resume deadline
}

// errSessionStopped is an internal signal that an install lost the race
// with Close or circuit-open; no recovery should follow it.
var errSessionStopped = errors.New("session: stopped")

// idFallback backs newSessionID if crypto/rand fails.
var idFallback atomic.Uint64

func newSessionID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return idFallback.Add(1) | 1<<63
	}
	return binary.LittleEndian.Uint64(b[:]) | 1 // nonzero
}

// NewConn establishes a session by dialing. The initial connect gets the
// same attempt/deadline budget as a reconnect, so it tolerates racing the
// peer's startup; if the budget is spent, the error is returned (no Conn
// exists yet, so no circuit opens).
func NewConn(dial DialFunc, cfg Config) (*Conn, error) {
	c := &Conn{cfg: cfg.withDefaults(), id: newSessionID(), dial: dial}
	c.cond = sync.NewCond(&c.mu)

	start := time.Now()
	backoff := c.cfg.BaseBackoff
	var cause error
	for attempt := 1; ; attempt++ {
		if attempt > c.cfg.MaxAttempts || time.Since(start) > c.cfg.MaxElapsed {
			return nil, fmt.Errorf("session: connect failed after %d attempts: %w", attempt-1, cause)
		}
		if attempt > 1 {
			sleepJitter(backoff)
			backoff = minDuration(backoff*2, c.cfg.MaxBackoff)
		}
		nc, err := c.dialOnce()
		if err != nil {
			cause = err
			continue
		}
		peerDelivered, err := c.handshake(nc, false)
		if err != nil {
			nc.Close()
			var rej *RejectedError
			if errors.As(err, &rej) {
				return nil, err
			}
			cause = err
			continue
		}
		if err := c.installConn(nc, peerDelivered); err != nil {
			nc.Close()
			return nil, err
		}
		c.mu.Lock()
		c.counted = true
		c.mu.Unlock()
		mConnsOpen.Add(1)
		return c, nil
	}
}

// Dial establishes a session over a fresh transport connection to addr,
// redialing the same address on every reconnect.
func Dial(network, addr string, cfg Config) (*Conn, error) {
	return NewConn(func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, network, addr)
	}, cfg)
}

// newPassiveConn builds the listener-owned side of a session. The caller
// (the listener's handshake) installs the first physical conn.
func newPassiveConn(l *Listener, id uint64, cfg Config) *Conn {
	c := &Conn{cfg: cfg, id: id, lst: l}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// ID returns the session's identity (stable across reconnects).
func (c *Conn) ID() uint64 { return c.id }

func (c *Conn) dialOnce() (transport.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HandshakeTimeout)
	defer cancel()
	return c.dial(ctx)
}

// handshake runs the dialer side of the hello/welcome exchange on a fresh
// physical conn, returning the peer's resume offset.
func (c *Conn) handshake(nc transport.Conn, resume bool) (uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HandshakeTimeout)
	defer cancel()
	c.mu.Lock()
	delivered := c.lastDelivered
	c.mu.Unlock()
	if err := nc.SendContext(ctx, encodeHello(make([]byte, 0, helloLen), c.id, delivered, resume)); err != nil {
		return 0, fmt.Errorf("session: hello: %w", err)
	}
	msg, err := nc.RecvContext(ctx)
	if err != nil {
		return 0, fmt.Errorf("session: welcome: %w", err)
	}
	defer bufpool.PutFrame(msg)
	f, err := decodeFrame(msg)
	if err != nil {
		return 0, err
	}
	switch f.kind {
	case kindWelcome:
		if f.id != c.id {
			return 0, fmt.Errorf("session: welcome for session %#x, want %#x", f.id, c.id)
		}
		return f.ack, nil
	case kindReject:
		return 0, &RejectedError{SessionID: f.id, Reason: string(f.payload)}
	default:
		return 0, fmt.Errorf("session: expected welcome, got frame kind %#02x", f.kind)
	}
}

// installConn trims the replay buffer to the peer's resume offset,
// replays everything it has not delivered, and promotes nc to the live
// connection. The replay is the one writer's work: nc becomes the conn it
// writes to, with everything after the peer's offset unwritten, and the
// install writes until nothing is — frames that concurrent Sends sequence
// meanwhile included, whichever goroutine writes them — then promotes, so
// nothing is ever left unsent. The pump starts before the replay so the
// peer's concurrent replay in the other direction is drained — two large
// simultaneous resumes must not deadlock on full socket buffers; acks
// arriving during the replay park their buffers in pendingFree instead of
// recycling them out from under the in-flight writes.
func (c *Conn) installConn(nc transport.Conn, peerDelivered uint64) error {
	c.mu.Lock()
	if c.closed || c.dead != nil {
		c.mu.Unlock()
		return errSessionStopped
	}
	c.installing, c.incoming, c.incomingErr = true, nc, nil
	c.ackUpToLocked(peerDelivered)
	c.wconn, c.written = nc, peerDelivered
	if pc, ok := nc.(placingConn); ok && c.placer != nil {
		pc.SetPlacer(c.placer)
	}
	c.mu.Unlock()
	go c.pump(nc)
	for {
		// Judged with the writer idle, so no write to nc is in flight when
		// the install ends and the parked buffers return to the pool.
		c.wmu.Lock()
		c.mu.Lock()
		var err error
		switch {
		case c.closed || c.dead != nil:
			err = errSessionStopped
		case c.incomingErr != nil:
			err = fmt.Errorf("session: connection lost during install: %w", c.incomingErr)
		case c.written == c.nextSeq:
			c.cur = nc
			c.gen++
			if c.downTimer != nil {
				c.downTimer.Stop()
				c.downTimer = nil
			}
			c.cond.Broadcast()
		}
		caughtUp := c.cur == nc
		if err != nil || caughtUp {
			c.finishInstallLocked(err != nil)
		}
		c.mu.Unlock()
		c.wmu.Unlock()
		if err != nil || caughtUp {
			return err
		}
		// A failed write fails nc (connFailed), which the next pass sees.
		mFramesReplayed.Add(uint64(c.write()))
	}
}

// finishInstallLocked ends an install; a failed one also stops the writer
// writing to its conn. Buffers whose acknowledgement raced the replay are
// now safely off the wire and return to the pool.
func (c *Conn) finishInstallLocked(failed bool) {
	if failed && c.wconn == c.incoming {
		c.wconn = nil
	}
	c.installing, c.incoming = false, nil
	for i, b := range c.pendingFree {
		bufpool.Put(b)
		c.pendingFree[i] = nil
	}
	c.pendingFree = c.pendingFree[:0]
	for i, l := range c.pendingLent {
		l.Release()
		c.pendingLent[i] = nil
	}
	c.pendingLent = c.pendingLent[:0]
}

// connFailed records the loss of a physical connection and starts
// recovery: a redial loop on the active side, a resume deadline on the
// passive side. Every path that observes a failure funnels here; only the
// caller that actually transitions the live conn to down starts recovery.
func (c *Conn) connFailed(failed transport.Conn, cause error) {
	c.mu.Lock()
	if failed == c.incoming && c.incomingErr == nil {
		c.incomingErr = cause // the install in progress reports it
	}
	if c.wconn == failed {
		c.wconn = nil // the resume replays what it has not delivered
	}
	if c.closed || c.dead != nil || c.cur != failed {
		c.mu.Unlock()
		return
	}
	c.cur = nil
	gen := c.gen
	c.mu.Unlock()
	failed.Close()
	if c.dial != nil {
		go c.redialLoop(cause)
	} else {
		c.armResumeDeadline(gen, cause)
	}
}

// armResumeDeadline opens the circuit if the passive side is still down
// when the resume window closes. The generation check self-disarms a
// timer from an outage that has since been repaired.
func (c *Conn) armResumeDeadline(gen uint64, cause error) {
	t := time.AfterFunc(c.cfg.MaxElapsed, func() {
		c.mu.Lock()
		expired := c.cur == nil && !c.closed && c.dead == nil && c.gen == gen
		c.mu.Unlock()
		if expired {
			c.markDead(0, c.cfg.MaxElapsed, fmt.Errorf("no resume within %v: %w", c.cfg.MaxElapsed, cause))
		}
	})
	c.mu.Lock()
	if c.downTimer != nil {
		c.downTimer.Stop()
	}
	c.downTimer = t
	if c.closed || c.dead != nil || c.cur != nil {
		// Lost a race with Close/attach; the gen check would catch it,
		// but stop the timer promptly anyway.
		t.Stop()
	}
	c.mu.Unlock()
}

// redialLoop is the active side's recovery: jittered exponential backoff
// dials until the session resumes or the budget opens the circuit. An
// attempt that fails after frames crossed — the peer delivered some of
// the replay, or we delivered some of its — ends the outage it counted
// against: the budget starts over, so a link that flaps faster than a
// backlog drains keeps draining it.
func (c *Conn) redialLoop(cause error) {
	start, mark := time.Now(), c.progress()
	backoff := c.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
		c.mu.Lock()
		stopped := c.closed || c.dead != nil
		c.mu.Unlock()
		if stopped {
			return
		}
		if p := c.progress(); p != mark {
			start, mark, backoff, attempt = time.Now(), p, c.cfg.BaseBackoff, 1
		}
		if attempt > c.cfg.MaxAttempts || time.Since(start) > c.cfg.MaxElapsed {
			c.markDead(attempt-1, time.Since(start), cause)
			return
		}
		sleepJitter(backoff)
		backoff = minDuration(backoff*2, c.cfg.MaxBackoff)
		mReconnectAttempts.Inc()
		nc, err := c.dialOnce()
		if err != nil {
			mReconnectFails.Inc()
			cause = err
			continue
		}
		peerDelivered, err := c.handshake(nc, true)
		if err != nil {
			nc.Close()
			var rej *RejectedError
			if errors.As(err, &rej) {
				c.markDead(attempt, time.Since(start), err)
				return
			}
			mReconnectFails.Inc()
			cause = err
			continue
		}
		if err := c.installConn(nc, peerDelivered); err != nil {
			nc.Close()
			if errors.Is(err, errSessionStopped) {
				return
			}
			mReconnectFails.Inc()
			cause = err
			continue
		}
		mReconnects.Inc()
		obs.Trace().Span(obs.EvRedial, "session", -1, -1, 0, start)
		return
	}
}

// progress counts the frames that have crossed in both directions: those
// the peer acknowledged and those delivered here. It only grows.
func (c *Conn) progress() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq - uint64(c.replay.len()) + c.lastDelivered
}

// attach resumes a downed (or stale) passive session on a fresh physical
// connection accepted by the listener: welcome with our resume offset,
// replay what the peer missed, promote.
func (c *Conn) attach(nc transport.Conn, peerDelivered uint64) {
	c.attachMu.Lock()
	defer c.attachMu.Unlock()
	c.mu.Lock()
	if c.closed || c.dead != nil {
		c.mu.Unlock()
		nc.Close()
		return
	}
	if old := c.cur; old != nil {
		// The peer redialed while we still considered the link live: the
		// old incarnation is stale. Its pump observes the close and
		// finds it is no longer current.
		c.cur, c.wconn = nil, nil
		c.mu.Unlock()
		old.Close()
		c.mu.Lock()
	}
	delivered := c.lastDelivered
	gen := c.gen
	c.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HandshakeTimeout)
	err := nc.SendContext(ctx, encodeWelcome(make([]byte, 0, welcomeLen), c.id, delivered))
	cancel()
	if err == nil {
		err = c.installConn(nc, peerDelivered)
	}
	if err != nil {
		nc.Close()
		if !errors.Is(err, errSessionStopped) {
			c.armResumeDeadline(gen, err)
		}
		return
	}
	mReattaches.Inc()
}

// markDead opens the circuit: every pending and future operation reports
// the same *PeerLostError, and the replay buffer returns to the pool.
func (c *Conn) markDead(attempts int, elapsed time.Duration, cause error) {
	c.mu.Lock()
	if c.dead != nil || c.closed {
		c.mu.Unlock()
		return
	}
	c.dead = &PeerLostError{SessionID: c.id, Attempts: attempts, Elapsed: elapsed, Cause: cause}
	c.freeReplayLocked()
	c.cond.Broadcast()
	c.mu.Unlock()
	mPeerLost.Inc()
	if c.lst != nil {
		c.lst.remove(c.id)
	}
}

// ackUpToLocked releases replay entries covered by a cumulative ack.
// During an install the buffers are parked rather than pooled (see
// installConn); a frame already snapshot into a replay batch may still be
// sent after its ack lands — the receiver drops it by sequence number.
func (c *Conn) ackUpToLocked(ack uint64) {
	freed := false
	for c.replay.len() > 0 && c.replay.at(0).seq <= ack {
		e := c.replay.popFront()
		c.replayBytes -= e.size()
		if c.installing {
			c.pendingFree = append(c.pendingFree, e.own)
			if e.data != nil {
				c.pendingFree = append(c.pendingFree, e.data)
			}
			if e.loan != nil {
				c.pendingLent = append(c.pendingLent, e.loan)
			}
		} else {
			bufpool.Put(e.own)
			bufpool.Put(e.data)
			if e.loan != nil {
				e.loan.Release()
			}
		}
		mReplayDepth.Add(-1)
		freed = true
	}
	if freed {
		c.cond.Broadcast()
	}
}

func (c *Conn) freeReplayLocked() {
	c.ackUpToLocked(^uint64(0))
}

// replayFullLocked reports whether Send must block for flow control. A
// single frame larger than MaxReplayBytes is admitted when alone, so an
// oversized message can never wedge an idle session.
func (c *Conn) replayFullLocked() bool {
	return c.replay.len() >= c.cfg.MaxReplayFrames ||
		(c.replay.len() > 0 && c.replayBytes >= c.cfg.MaxReplayBytes)
}

// pump is the per-incarnation reader: it drains the physical connection,
// releases acknowledged replay entries, enqueues in-order data to the
// inbox, drops replay duplicates, and volunteers standalone acks when
// one-sided traffic crosses the ack thresholds. A frame whose payload goes
// to the inbox moves there; every other frame returns to the pool here.
//
// A frame the physical conn placed (see SetPlacer) is delivered like any
// other when its sequence number is the next one; any other fate spoils
// its placement, so the posting it landed in never completes.
func (c *Conn) pump(conn transport.Conn) {
	pc, _ := conn.(placingConn)
	for {
		msg, err := conn.Recv()
		if err != nil {
			c.connFailed(conn, err)
			return
		}
		var placed wire.Placement
		if pc != nil {
			placed = pc.TakePlaced()
		}
		f, derr := decodeFrame(msg)
		if derr != nil || f.kind != kindData {
			spoil(placed)
		}
		if derr != nil {
			bufpool.PutFrame(msg)
			c.connFailed(conn, derr)
			return
		}
		switch f.kind {
		case kindAck:
			bufpool.PutFrame(msg)
			c.mu.Lock()
			c.ackUpToLocked(f.ack)
			c.mu.Unlock()
		case kindData:
			c.mu.Lock()
			c.ackUpToLocked(f.ack)
			switch {
			case c.closed:
				// Close has already returned the inbox; nothing will
				// receive this.
				c.mu.Unlock()
				spoil(placed)
				bufpool.PutFrame(msg)
			case f.seq == c.lastDelivered+1:
				c.lastDelivered = f.seq
				c.inbox = append(c.inbox, f.payload)
				c.recvSinceAck++
				c.bytesSinceAck += len(f.payload)
				if placed != nil {
					// The placed bytes count toward the ack threshold as
					// much as bytes in the frame: the sender retains them
					// just the same.
					off, n := placed.Region()
					c.bytesSinceAck += off + n - len(f.payload)
				}
				var ackNow uint64
				sendAck := false
				if f.ackNow || c.recvSinceAck >= c.cfg.ackEvery() || c.bytesSinceAck >= c.cfg.ackBytes() {
					ackNow, sendAck = c.lastDelivered, true
					c.recvSinceAck, c.bytesSinceAck = 0, 0
				}
				c.cond.Broadcast()
				c.mu.Unlock()
				if sendAck {
					c.sendAck(conn, ackNow)
				}
			case f.seq <= c.lastDelivered:
				// A replay duplicate: the peer resumed from an offset we
				// had already passed. Exactly-once is enforced here.
				c.mu.Unlock()
				spoil(placed)
				bufpool.PutFrame(msg)
				mDupDropped.Inc()
			default:
				// A gap is a protocol violation (the transport is ordered
				// and resumes replay from our offset); treat it as link
				// failure so a reconnect re-synchronizes both sides.
				delivered := c.lastDelivered
				c.mu.Unlock()
				spoil(placed)
				bufpool.PutFrame(msg)
				c.connFailed(conn, fmt.Errorf("session: sequence gap: got %d, delivered %d", f.seq, delivered))
				return
			}
		default:
			bufpool.PutFrame(msg)
			c.connFailed(conn, fmt.Errorf("session: unexpected frame kind %#02x on established session", f.kind))
			return
		}
	}
}

// placingConn is a physical conn that can read large frames straight into
// posted memory (transport's TCP conn).
type placingConn interface {
	SetPlacer(wire.Placer)
	TakePlaced() wire.Placement
}

// spoil rejects a placed frame the session does not deliver.
func spoil(p wire.Placement) {
	if p != nil {
		p.Spoil()
		mPlacedSpoiled.Inc()
	}
}

// SetPlacer has every physical conn that can place frames (TCP) offer
// its large frames to p as they arrive, this one and those later resumes
// install; nil stops it. A placed frame is delivered by Recv without its
// placed bytes, and only when its sequence number is the next in order —
// a duplicate, a gap or a closed session spoils the placement instead.
func (c *Conn) SetPlacer(p wire.Placer) {
	c.mu.Lock()
	c.placer = p
	cur := c.cur
	c.mu.Unlock()
	if pc, ok := cur.(placingConn); ok {
		pc.SetPlacer(p)
	}
}

// sendAck writes a standalone cumulative acknowledgement, best-effort: a
// failure is handled as a link failure, and the resume handshake carries
// the offset anyway.
func (c *Conn) sendAck(conn transport.Conn, ack uint64) {
	b := bufpool.Get(ackLen) // a stack array would escape through Send
	putAck(b, ack)
	c.wmu.Lock()
	err := conn.Send(b)
	c.wmu.Unlock()
	bufpool.Put(b)
	if err != nil {
		c.connFailed(conn, err)
		return
	}
	mAcksSent.Inc()
}

// Send transmits one message with exactly-once delivery across
// reconnects. It blocks only for flow control (replay buffer full); the
// frame is buffered before any physical write, so a link failure after
// Send returns cannot lose it. Send reports an error only once the
// circuit is open (*PeerLostError) or the session is closed.
func (c *Conn) Send(msg []byte) error {
	return c.SendContext(context.Background(), msg)
}

// SendContext is Send with the flow-control wait bounded by ctx. Deadline
// expiry reports transport.ErrTimeout (wrapped); the physical write
// itself is not bounded — an abandoned mid-frame write would poison the
// stream, and reconnection already bounds a stuck link.
func (c *Conn) SendContext(ctx context.Context, msg []byte) error {
	seg := [1][]byte{msg}
	one := [1]net.Buffers{seg[:]}
	return c.send(ctx, one[:], false, nil)
}

// SendBatch is Send of every message in order, each its own frame with
// its own sequence number — replay, acks and duplicate dropping see no
// difference — and all of them written to the physical connection
// together: one writev over TCP. With owned set, each message's head and
// the session trailer go into one small pooled buffer, its payload (a
// bufpool buffer) is retained by reference in the replay ring, and no
// payload byte is copied between here and the socket; the payload returns
// to the pool exactly once: when the peer's cumulative ack covers the
// frame, when the session tears down (Close, circuit open), or right here
// if the send is refused. A lent message's segments are kept by reference
// in the replay ring, like an owned payload, and its frame asks the peer
// for an immediate acknowledgement, which releases the loan; a resume
// replays the same views.
func (c *Conn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	return c.send(context.Background(), msgs, owned, loans)
}

// send is the session's one send path. Each message becomes one replay
// entry: a pooled buffer holding its bytes — all but the last segment when
// owned, the head when lent — with room for the data trailer after them,
// and, when owned or lent, the payload retained by reference. Sends are
// sequenced one call at a time (smu), but written after smu is released:
// a send of less than wire.PlaceMin bytes first yields once, so that
// another goroutine ready to send sequences its frames too and the writer
// puts both sends on the wire with one write (group commit). A larger send
// — every lent one among them — writes at once. Either way send returns
// only once its frames are written, by this call or by the writer that
// took them (write), or the conn has gone down.
func (c *Conn) send(ctx context.Context, msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	c.smu.Lock()
	ents, size := c.ents[:0], 0
	for i, segs := range msgs {
		var data []byte
		var loan wire.Loan
		lent := 0
		if loans != nil && loans[i] != nil {
			loan = loans[i]
			for _, s := range loan.Segs() {
				lent += len(s)
			}
			mLentFrames.Inc()
		} else if owned && len(segs) > 0 {
			segs, data = segs[:len(segs)-1], segs[len(segs)-1]
			if len(data) == 0 {
				data = nil
			}
		}
		n := 0
		for _, s := range segs {
			n += len(s)
		}
		own := bufpool.Get(n + dataTrailerLen)
		n = 0
		for _, s := range segs {
			n += copy(own[n:], s)
		}
		e := replayEntry{own: own, data: data, loan: loan, lent: lent}
		size += e.size()
		ents = append(ents, e)
	}
	err := c.enqueue(ctx, ents)
	clear(ents)
	c.ents = ents[:0]
	c.smu.Unlock()
	if err != nil {
		return err
	}
	if size < wire.PlaceMin {
		runtime.Gosched()
	}
	c.write()
	return nil
}

// enqueue sequences data frames into the replay ring; the caller has the
// writer put them on the wire. Each entry's own is a pooled buffer ending in
// dataTrailerLen bytes for the trailer, and data a retained payload or
// nil; both belong to the session from the call on, and a refused send
// returns those of the entries not yet sequenced to the pool. Flow control
// admits entries while the ring has room; before waiting for room, enqueue
// writes whatever is sequenced and unwritten, since the acks that make
// room can only follow it — a batch larger than the ring cannot deadlock.
func (c *Conn) enqueue(ctx context.Context, ents []replayEntry) error {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer stop()
	}
	for len(ents) > 0 {
		c.mu.Lock()
		if c.replayFullLocked() && c.wconn != nil && c.written < c.nextSeq {
			c.mu.Unlock()
			c.write()
			continue
		}
		for c.replayFullLocked() && !c.closed && c.dead == nil && ctx.Err() == nil {
			c.cond.Wait()
		}
		var err error
		switch {
		case c.closed:
			err = transport.ErrClosed
		case c.dead != nil:
			err = c.dead
		case ctx.Err() != nil:
			err = ctxErr(ctx)
		}
		if err != nil {
			c.mu.Unlock()
			for _, e := range ents {
				bufpool.Put(e.own)
				bufpool.Put(e.data)
				if e.loan != nil {
					e.loan.Release()
				}
			}
			return err
		}
		for len(ents) > 0 && !c.replayFullLocked() {
			e := ents[0]
			ents = ents[1:]
			c.nextSeq++
			e.seq = c.nextSeq
			putDataTrailer(e.own[len(e.own)-dataTrailerLen:], e.seq, c.lastDelivered, e.loan != nil)
			c.replay.push(e)
			c.replayBytes += e.size()
			mReplayDepth.Add(1)
		}
		c.recvSinceAck, c.bytesSinceAck = 0, 0 // the trailers piggyback the ack
		c.mu.Unlock()
	}
	return nil
}

// write is the session's one writer. Under wmu it takes every frame that
// is sequenced but not yet written on the writer's conn and writes them in
// sequence order with one SendBatch, so frames reach the wire in the order
// they were sequenced, whichever goroutine sent them: a caller writes for
// everyone who sequenced before it. Down (no conn), it writes nothing —
// recovery replays those frames. A failed write is that conn's failure
// (connFailed); the frames stay in the ring for the resume to replay. It
// returns how many frames it wrote.
func (c *Conn) write() int {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	conn, batch := c.wconn, c.wbatch[:0]
	if conn != nil && c.written < c.nextSeq && c.replay.len() > 0 {
		// The ring holds consecutive sequence numbers, so the unwritten
		// frames are its tail.
		for i := max(0, int(int64(c.written)-int64(c.replay.at(0).seq)+1)); i < c.replay.len(); i++ {
			batch = append(batch, c.replay.at(i))
		}
		c.written = c.nextSeq
	}
	if len(batch) > 0 {
		c.wlo, c.whi, c.wbusy = batch[0].seq, batch[len(batch)-1].seq, conn
	}
	c.mu.Unlock()
	if len(batch) == 0 {
		return 0
	}
	// An entry with a retained payload is three segments — head, payload,
	// trailer — one with a loan the head, the lent segments and the
	// trailer, and one otherwise.
	segs, iovs := c.segs[:0], c.iovs[:0]
	for _, e := range batch {
		k := len(segs)
		switch {
		case e.loan != nil:
			segs = append(segs, e.own[:len(e.own)-dataTrailerLen])
			segs = append(segs, e.loan.Segs()...)
			segs = append(segs, e.own[len(e.own)-dataTrailerLen:])
		case e.data != nil:
			segs = append(segs, e.own[:len(e.own)-dataTrailerLen], e.data, e.own[len(e.own)-dataTrailerLen:])
		default:
			segs = append(segs, e.own)
		}
		iovs = append(iovs, segs[k:len(segs):len(segs)])
	}
	err := conn.SendBatch(iovs, false, nil)
	c.mu.Lock()
	c.wlo, c.whi, c.wbusy = 0, 0, nil
	c.wends++
	if c.reclaims > 0 {
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	n := len(batch)
	clear(batch)
	clear(segs)
	clear(iovs)
	c.wbatch, c.segs, c.iovs = batch[:0], segs[:0], iovs[:0]
	if err != nil {
		c.connFailed(conn, err)
	}
	return n
}

// Reclaim takes a loan back from the session before its frame is
// acknowledged: the lent views are copied into a pooled buffer the replay
// ring keeps in their place, and the loan is released; a resume replays
// the copy. No write is reading the views meanwhile: when the frame is
// part of the write in progress — its peer silent, so the link is most
// likely stalled — that write is forced off by closing its physical conn,
// which the session recovers from like any other loss, and Reclaim waits
// for it to return. It reports whether the session still held the loan.
// A lender that gives up on a silent peer reclaims, so that it can return
// while the frame is still unacknowledged.
func (c *Conn) Reclaim(l wire.Loan) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		var e *replayEntry
		for i := 0; i < c.replay.len() && e == nil; i++ {
			if p := c.replay.ptr(i); p.loan == l {
				e = p
			}
		}
		if e == nil {
			return false
		}
		if c.whi == 0 || e.seq < c.wlo || e.seq > c.whi {
			data, n := bufpool.Get(e.lent), 0
			for _, s := range l.Segs() {
				n += copy(data[n:], s)
			}
			e.data, e.loan, e.lent = data, nil, 0
			l.Release()
			mReclaims.Inc()
			return true
		}
		c.reclaims++
		ends := c.wends
		if busy := c.wbusy; busy != nil {
			c.mu.Unlock()
			busy.Close()
			c.mu.Lock()
		}
		for c.wends == ends {
			c.cond.Wait()
		}
		c.reclaims--
	}
}

// Recv blocks until the next in-order message is available and returns
// it. Frames keep arriving across reconnects; Recv fails only once the
// circuit is open or the session is closed.
//
// The message is the payload of the received session frame, a prefix of
// the pooled frame the transport read it into: the caller owns it and
// returns it with bufpool.PutFrame, as with any transport.Conn.
func (c *Conn) Recv() ([]byte, error) {
	return c.RecvContext(context.Background())
}

// RecvContext is Recv bounded by ctx: expiry reports transport.ErrTimeout
// (wrapped), cancellation reports ctx.Err().
func (c *Conn) RecvContext(ctx context.Context) ([]byte, error) {
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
		defer stop()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.inboxHead < len(c.inbox) {
			m := c.inbox[c.inboxHead]
			c.inbox[c.inboxHead] = nil
			c.inboxHead++
			if c.inboxHead == len(c.inbox) {
				c.inbox = c.inbox[:0]
				c.inboxHead = 0
			} else if c.inboxHead >= 256 {
				n := copy(c.inbox, c.inbox[c.inboxHead:])
				c.inbox = c.inbox[:n]
				c.inboxHead = 0
			}
			return m, nil
		}
		if c.closed {
			return nil, transport.ErrClosed
		}
		if c.dead != nil {
			return nil, c.dead
		}
		if ctx.Err() != nil {
			return nil, ctxErr(ctx)
		}
		c.cond.Wait()
	}
}

// Close releases the session on this side. Pending and future operations
// report transport.ErrClosed, and received messages nobody took return to
// the pool; the peer sees a link failure and, unable to resume (the
// listener forgets closed sessions), eventually opens its circuit.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.cur
	c.cur, c.wconn = nil, nil
	c.freeReplayLocked()
	for _, m := range c.inbox[c.inboxHead:] {
		bufpool.PutFrame(m)
	}
	c.inbox, c.inboxHead = nil, 0
	if c.downTimer != nil {
		c.downTimer.Stop()
		c.downTimer = nil
	}
	counted := c.counted
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if c.lst != nil {
		c.lst.remove(c.id)
	}
	if counted {
		mConnsOpen.Add(-1)
	}
	return nil
}

// Down reports whether the session is currently between physical
// connections (recovering), and Dead whether the circuit has opened.
func (c *Conn) Down() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur == nil && !c.closed && c.dead == nil
}

// Err returns the terminal error once the circuit has opened, else nil.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// ctxErr maps a finished context to the transport error contract.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %v", transport.ErrTimeout, err)
	}
	return ctx.Err()
}

// sleepJitter sleeps between half and the full backoff, decorrelating
// reconnect storms from many sessions that failed together.
func sleepJitter(d time.Duration) {
	if d <= 0 {
		return
	}
	half := int64(d) / 2
	time.Sleep(time.Duration(half + rand.Int63n(half+1)))
}

func minDuration(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

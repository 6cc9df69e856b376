// Listener-side session management: accept raw transport connections,
// run the hello/welcome handshake, and route each physical connection to
// either a brand-new session (surfaced through Accept) or an existing one
// that is resuming after a failure (absorbed silently by attach).
package session

import (
	"context"
	"errors"
	"sync"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
)

// Listener accepts resumable sessions. It implements transport.Listener:
// Accept returns a *Conn (as a transport.Conn) once per *session*, not
// once per physical connection — reconnects of live sessions are resumed
// in place and never reach Accept. Because it consumes and produces the
// transport interfaces, it composes with any inner listener, including a
// fault-injecting faultconn.Listener.
type Listener struct {
	inner transport.Listener
	cfg   Config

	mu       sync.Mutex
	sessions map[uint64]*Conn
	closed   bool

	accepted chan *Conn
	acceptWG sync.WaitGroup
	done     chan struct{}
}

// WrapListener layers session management over an accepted-connection
// source. The returned listener owns inner and closes it on Close.
func WrapListener(inner transport.Listener, cfg Config) *Listener {
	l := &Listener{
		inner:    inner,
		cfg:      cfg.withDefaults(),
		sessions: make(map[uint64]*Conn),
		accepted: make(chan *Conn, 16),
		done:     make(chan struct{}),
	}
	go l.acceptLoop()
	return l
}

// Listen opens a transport listener on addr and wraps it.
func Listen(network, addr string, cfg Config) (*Listener, error) {
	inner, err := transport.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return WrapListener(inner, cfg), nil
}

// Addr reports the inner listener's address.
func (l *Listener) Addr() string { return l.inner.Addr() }

// Accept returns the next new session. Physical reconnects of sessions
// already accepted are handled internally and do not surface here.
func (l *Listener) Accept() (transport.Conn, error) {
	select {
	case c := <-l.accepted:
		return c, nil
	case <-l.done:
		// Drain sessions that raced with Close.
		select {
		case c := <-l.accepted:
			return c, nil
		default:
			return nil, transport.ErrClosed
		}
	}
}

// Close stops accepting and closes every live session. Peers of closed
// sessions observe link failure and, unable to resume, open their
// circuits after their budgets.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	conns := make([]*Conn, 0, len(l.sessions))
	for _, c := range l.sessions {
		conns = append(conns, c)
	}
	l.sessions = nil
	close(l.done)
	l.mu.Unlock()
	err := l.inner.Close()
	l.acceptWG.Wait()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (l *Listener) acceptLoop() {
	for {
		raw, err := l.inner.Accept()
		if err != nil {
			return
		}
		l.acceptWG.Add(1)
		go func() {
			defer l.acceptWG.Done()
			l.handshake(raw)
		}()
	}
}

// handshake reads the peer's hello from a fresh physical connection and
// routes it: new session → register + surface via Accept; resume of a
// known session → attach in place; resume of an unknown session →
// reject (the exactly-once state is gone, so resuming would lie).
func (l *Listener) handshake(raw transport.Conn) {
	ctx, cancel := context.WithTimeout(context.Background(), l.cfg.HandshakeTimeout)
	defer cancel()
	msg, err := raw.RecvContext(ctx)
	if err != nil {
		raw.Close()
		return
	}
	f, err := decodeFrame(msg)
	bufpool.PutFrame(msg) // a hello carries nothing f does not hold
	if err != nil || f.kind != kindHello {
		raw.Close()
		return
	}

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		raw.Close()
		return
	}
	existing := l.sessions[f.id]
	if existing == nil && !f.resume {
		c := newPassiveConn(l, f.id, l.cfg)
		l.sessions[f.id] = c
		l.mu.Unlock()
		if err := raw.SendContext(ctx, encodeWelcome(make([]byte, 0, welcomeLen), f.id, 0)); err != nil {
			raw.Close()
			l.remove(f.id)
			return
		}
		// A resume of this session attaches only after the first install
		// is over, whichever way it went.
		c.attachMu.Lock()
		err := c.installConn(raw, f.ack)
		c.attachMu.Unlock()
		if err != nil {
			raw.Close()
			if errors.Is(err, errSessionStopped) {
				l.remove(f.id)
				return
			}
			// The link died before its promotion, but the peer holds its
			// welcome and will resume: the session stands, down, until the
			// resume attaches or its window closes.
			c.mu.Lock()
			gen := c.gen
			c.mu.Unlock()
			c.armResumeDeadline(gen, err)
		}
		c.mu.Lock()
		c.counted = true
		c.mu.Unlock()
		mConnsOpen.Add(1)
		select {
		case l.accepted <- c:
		case <-l.done:
			c.Close()
		}
		return
	}
	l.mu.Unlock()

	switch {
	case existing != nil:
		// Resume (or a duplicate fresh hello after a lost welcome — the
		// session state still matches, so attach handles both).
		existing.attach(raw, f.ack)
	default:
		// Resume of a session we do not know: the listener restarted or
		// already reaped it. Exactly-once cannot be honored, so say so.
		mRejects.Inc()
		_ = raw.SendContext(ctx, encodeReject(make([]byte, 0, rejectMin+16), f.id, "unknown session"))
		raw.Close()
	}
}

// remove forgets a session (on its Close or circuit-open) so a later
// resume attempt is rejected instead of attached to a zombie.
func (l *Listener) remove(id uint64) {
	l.mu.Lock()
	if l.sessions != nil {
		delete(l.sessions, id)
	}
	l.mu.Unlock()
}

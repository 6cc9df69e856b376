// Package faultconn wraps a transport.Conn with deterministic, seed-driven
// fault injection: added latency, message drop, duplication, reordering,
// byte corruption, and hard partition. It is the substrate for chaos tests
// of the redistribution and PRMI stacks — every failure a hostile network
// can produce, reproducible from a single seed.
//
// Faults are configured per direction with a Scenario. All randomness comes
// from seeded PRNGs derived from Scenario.Seed, so a failing test run is
// replayed exactly by rerunning with the same seed; nothing consults
// time.Now for decisions (latency faults sleep, but whether and how long is
// seed-determined).
package faultconn

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// ErrPartitioned is returned by operations on a partitioned connection.
// It matches errors.Is(err, transport.ErrClosed): a partition is
// indistinguishable from a dead link to the layers above.
var ErrPartitioned = fmt.Errorf("faultconn: partitioned (%w)", transport.ErrClosed)

// Faults configures the fault mix for one direction of a connection.
// Probabilities are in [0,1] and are rolled independently per message.
type Faults struct {
	// Latency is added to every message; Jitter adds a uniform random
	// extra in [0, Jitter).
	Latency time.Duration
	Jitter  time.Duration
	// Drop is the probability a message silently disappears.
	Drop float64
	// Dup is the probability a message is delivered twice.
	Dup float64
	// Reorder is the probability a message is held back and delivered
	// after the one that follows it. A held message with no successor
	// stays held until Close — exactly the behavior of a real router
	// queue that never drains.
	Reorder float64
	// Corrupt is the probability one byte of the message is flipped
	// (in a copy; the caller's buffer is never touched).
	Corrupt float64
	// FailAfter, when positive, hard-partitions the connection after
	// that many messages have been attempted in this direction.
	FailAfter int
	// BlackholeAfter, when positive, silently discards every message in
	// this direction after that many have been attempted — an
	// asymmetric one-way partition: unlike FailAfter nothing errors and
	// the other direction keeps flowing, exactly the half-open link a
	// misconfigured firewall produces.
	BlackholeAfter int
}

// Scenario describes a complete fault environment for one connection.
type Scenario struct {
	// Seed drives every random decision. Two conns wrapped with equal
	// scenarios inject identical fault sequences.
	Seed int64
	// Send faults apply to outgoing messages, Recv faults to incoming
	// ones (after the inner Recv returns).
	Send Faults
	Recv Faults
	// CrashAfter, when positive, crashes the wrapped endpoint after
	// that many messages total (both directions combined): from then on
	// sends are silently swallowed and Recv blocks until the context is
	// done or the conn is closed — a crashed process, not a broken
	// link, so nothing ever errors on its own. Deterministic like every
	// other fault: the N+1th message observes the crash.
	CrashAfter int
	// FlapAfter, when positive, kills the inner conn after that many
	// messages total (both directions combined); FlapEvery, when
	// positive, kills it that long after the conn is wrapped. Unlike
	// FailAfter the failure is a link bounce, not a partition: operations
	// report ErrFlapped (which matches transport.ErrClosed) and a
	// Listener carrying the scenario keeps accepting, so a reconnecting
	// layer above can redial — and the replacement conn flaps too, which
	// is exactly what a reconnect soak wants.
	FlapAfter int
	FlapEvery time.Duration
}

// Conn injects faults around an inner transport.Conn. It implements
// transport.Conn and is safe for the same concurrent use as the inner conn
// (one sender and one receiver; the fault state itself is mutex-guarded).
type Conn struct {
	inner transport.Conn
	sc    Scenario

	mu        sync.Mutex
	sendRng   *rand.Rand
	recvRng   *rand.Rand
	sendHeld  [][]byte // reorder: messages waiting for a successor
	recvQueue [][]byte // dup/reorder: received frames owed to the next Recv
	recvHeld  [][]byte
	sendCount int
	recvCount int
	// Received frames are pooled and owned here until a Recv hands them
	// up: a fault that loses one returns it to the pool, and Close
	// returns those still queued or held.
	closed      bool
	partitioned bool
	crashed     bool
	flapped     bool

	flapTimer *time.Timer
	closeOnce sync.Once
	closedCh  chan struct{} // closed by Close; unblocks crashed Recvs
}

// Wrap returns a Conn that injects sc's faults around inner.
func Wrap(inner transport.Conn, sc Scenario) *Conn {
	c := &Conn{
		inner:    inner,
		sc:       sc,
		sendRng:  rand.New(rand.NewSource(sc.Seed)),
		recvRng:  rand.New(rand.NewSource(sc.Seed + 1)),
		closedCh: make(chan struct{}),
	}
	if sc.FlapEvery > 0 {
		c.flapTimer = time.AfterFunc(sc.FlapEvery, c.Flap)
	}
	return c
}

// Pipe returns an in-memory conn pair with sc's faults injected on the
// first conn; the second is the raw peer. Faults on a's Send direction
// affect what b receives, and vice versa.
func Pipe(sc Scenario) (*Conn, transport.Conn) {
	a, b := transport.Pipe()
	return Wrap(a, sc), b
}

// Partition hard-fails the connection: the inner conn is closed (which
// unblocks any pending Recv on either end) and every subsequent operation
// reports ErrPartitioned.
func (c *Conn) Partition() {
	c.mu.Lock()
	already := c.partitioned
	c.partitioned = true
	c.mu.Unlock()
	if !already {
		c.inner.Close()
	}
}

// ErrFlapped is returned by operations on a conn whose link has flapped
// (via Flap, Scenario.FlapAfter or Scenario.FlapEvery). It matches
// errors.Is(err, transport.ErrClosed): to the layers above, a flap is a
// dead link — the difference from a partition is that redialing works.
var ErrFlapped = fmt.Errorf("faultconn: link flapped (%w)", transport.ErrClosed)

// Flap kills the inner conn as a link bounce: subsequent operations on
// this conn report ErrFlapped, but nothing is said about the network —
// a fresh dial through the same Listener succeeds. Scenario.FlapAfter
// and Scenario.FlapEvery trigger this automatically.
func (c *Conn) Flap() {
	c.mu.Lock()
	already := c.flapped || c.partitioned
	c.flapped = true
	c.mu.Unlock()
	if !already {
		c.inner.Close()
	}
}

// Flapped reports whether the link has flapped.
func (c *Conn) Flapped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flapped
}

// flapAfterLocked applies the message-count flap trigger; the caller
// holds c.mu. It returns true once the conn has flapped.
func (c *Conn) flapAfterLocked() bool {
	if c.flapped {
		return true
	}
	if c.sc.FlapAfter > 0 && c.sendCount+c.recvCount > c.sc.FlapAfter {
		c.flapped = true
		c.inner.Close()
	}
	return c.flapped
}

// ErrCrashed is returned by Recv on a crashed conn once it is Closed. It
// matches errors.Is(err, transport.ErrClosed). Before Close, a crashed
// conn's Recv blocks silently — a crashed peer does not announce itself.
var ErrCrashed = fmt.Errorf("faultconn: peer crashed (%w)", transport.ErrClosed)

// Crash makes the endpoint behave as a crashed process from now on: sends
// are silently swallowed (no error) and Recv blocks until its context is
// done or the conn is closed. Unlike Partition the inner conn stays open
// and nothing fails fast — the failure is only observable as silence.
// Scenario.CrashAfter triggers this automatically at a message count.
func (c *Conn) Crash() {
	c.mu.Lock()
	c.crashed = true
	c.mu.Unlock()
}

// Crashed reports whether the endpoint has crashed (via Crash or
// Scenario.CrashAfter).
func (c *Conn) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// blockCrashed parks a Recv on a crashed conn until cancellation.
func (c *Conn) blockCrashed(ctx context.Context) ([]byte, error) {
	select {
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, fmt.Errorf("%w: %v", transport.ErrTimeout, ctx.Err())
		}
		return nil, ctx.Err()
	case <-c.closedCh:
		return nil, ErrCrashed
	}
}

// Close closes the inner connection and returns the received frames no
// Recv will hand up.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		if c.flapTimer != nil {
			c.flapTimer.Stop()
		}
		c.mu.Lock()
		c.closed = true
		for _, m := range append(c.recvQueue, c.recvHeld...) {
			bufpool.PutFrame(m)
		}
		c.recvQueue, c.recvHeld = nil, nil
		c.mu.Unlock()
	})
	return c.inner.Close()
}

func (c *Conn) Send(msg []byte) error {
	return c.SendContext(context.Background(), msg)
}

// SendBatch runs every message, flattened, through the per-message fault
// pipeline in order: the fault plan sees frames, never segment or batch
// boundaries, so vectored and batched callers observe exactly the
// drop/corrupt/duplicate/flap semantics flat callers do. The plan copies
// every message it keeps, so whatever it does — deliver, drop, duplicate,
// hold until Close — it does to its own copies, and each owned payload
// goes back to the pool, and each loan is released, exactly once on every
// outcome — once the message is copied.
func (c *Conn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	var err error
	for i, segs := range msgs {
		var loan wire.Loan
		if loans != nil {
			loan = loans[i]
		}
		if err == nil {
			msg := bytes.Join(segs, nil)
			if loan != nil {
				msg = append(msg, bytes.Join(loan.Segs(), nil)...)
			}
			err = c.SendContext(context.Background(), msg)
		}
		switch {
		case loan != nil:
			loan.Release()
		case owned && len(segs) > 0:
			bufpool.Put(segs[len(segs)-1])
		}
	}
	return err
}

// sendPlan is the outcome of rolling the send-direction faults for one
// message, decided under the mutex so the PRNG sequence is deterministic.
type sendPlan struct {
	delay   time.Duration
	out     [][]byte // messages to hand to the inner conn, in order
	blocked error    // non-nil: fail without touching the inner conn
}

func (c *Conn) planSend(msg []byte) sendPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitioned {
		return sendPlan{blocked: ErrPartitioned}
	}
	f := c.sc.Send
	c.sendCount++
	if c.sc.CrashAfter > 0 && c.sendCount+c.recvCount > c.sc.CrashAfter {
		c.crashed = true
	}
	if c.crashed {
		return sendPlan{} // swallowed: a crashed process sends nothing
	}
	if c.flapAfterLocked() {
		return sendPlan{blocked: ErrFlapped}
	}
	if f.FailAfter > 0 && c.sendCount > f.FailAfter {
		c.partitioned = true
		c.inner.Close()
		return sendPlan{blocked: ErrPartitioned}
	}
	if f.BlackholeAfter > 0 && c.sendCount > f.BlackholeAfter {
		return sendPlan{} // one-way partition: outgoing silence
	}
	var p sendPlan
	p.delay = rollLatency(c.sendRng, f)
	if roll(c.sendRng, f.Drop) {
		return p // silently dropped; the latency was still "spent"
	}
	m := cloneMsg(msg)
	if roll(c.sendRng, f.Corrupt) {
		flipByte(c.sendRng, m)
	}
	if roll(c.sendRng, f.Reorder) {
		c.sendHeld = append(c.sendHeld, m)
		return p
	}
	p.out = append(p.out, m)
	if roll(c.sendRng, f.Dup) {
		p.out = append(p.out, cloneMsg(m))
	}
	// A successor releases everything held for reordering: held messages
	// go out after it, which is exactly the inversion we promised.
	p.out = append(p.out, c.sendHeld...)
	c.sendHeld = nil
	return p
}

func (c *Conn) SendContext(ctx context.Context, msg []byte) error {
	p := c.planSend(msg)
	if p.blocked != nil {
		return p.blocked
	}
	if err := sleepCtx(ctx, p.delay); err != nil {
		return err
	}
	for _, m := range p.out {
		if err := c.inner.SendContext(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

func (c *Conn) Recv() ([]byte, error) {
	return c.RecvContext(context.Background())
}

func (c *Conn) RecvContext(ctx context.Context) ([]byte, error) {
	for {
		c.mu.Lock()
		if c.partitioned {
			c.mu.Unlock()
			return nil, ErrPartitioned
		}
		if c.flapped {
			c.mu.Unlock()
			return nil, ErrFlapped
		}
		if c.crashed {
			c.mu.Unlock()
			return c.blockCrashed(ctx)
		}
		if len(c.recvQueue) > 0 {
			m := c.recvQueue[0]
			c.recvQueue = c.recvQueue[1:]
			c.mu.Unlock()
			return m, nil
		}
		c.mu.Unlock()

		msg, err := c.inner.RecvContext(ctx)
		if err != nil {
			c.mu.Lock()
			partitioned, flapped := c.partitioned, c.flapped
			c.mu.Unlock()
			if errors.Is(err, transport.ErrClosed) {
				if partitioned {
					return nil, ErrPartitioned
				}
				if flapped {
					return nil, ErrFlapped
				}
			}
			return nil, err
		}

		c.mu.Lock()
		f := c.sc.Recv
		c.recvCount++
		if c.sc.CrashAfter > 0 && c.sendCount+c.recvCount > c.sc.CrashAfter {
			c.crashed = true
		}
		switch {
		case c.closed:
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			return nil, transport.ErrClosed
		case c.crashed:
			// The message arrived after the crash: it was never read.
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			return c.blockCrashed(ctx)
		case c.flapAfterLocked():
			// The link bounced while this message was in flight: it is
			// lost with the conn, like bytes in a dying socket buffer.
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			return nil, ErrFlapped
		case f.BlackholeAfter > 0 && c.recvCount > f.BlackholeAfter:
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			continue // one-way partition: incoming silence
		case f.FailAfter > 0 && c.recvCount > f.FailAfter:
			c.partitioned = true
			c.inner.Close()
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			return nil, ErrPartitioned
		}
		delay := rollLatency(c.recvRng, f)
		if roll(c.recvRng, f.Drop) {
			c.mu.Unlock()
			bufpool.PutFrame(msg)
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, err
			}
			continue // the message never existed; wait for the next one
		}
		if roll(c.recvRng, f.Corrupt) {
			flipByte(c.recvRng, msg)
		}
		if roll(c.recvRng, f.Reorder) {
			c.recvHeld = append(c.recvHeld, msg)
			c.mu.Unlock()
			if err := sleepCtx(ctx, delay); err != nil {
				return nil, err
			}
			continue // deliver the successor first
		}
		if roll(c.recvRng, f.Dup) {
			dup := bufpool.GetFrame(len(msg))
			copy(dup, msg)
			c.recvQueue = append(c.recvQueue, dup)
		}
		// Successor delivered; release anything held for reordering.
		c.recvQueue = append(c.recvQueue, c.recvHeld...)
		c.recvHeld = nil
		c.mu.Unlock()
		if err := sleepCtx(ctx, delay); err != nil {
			bufpool.PutFrame(msg)
			return nil, err
		}
		return msg, nil
	}
}

// Listener wraps a transport.Listener so every accepted conn carries the
// scenario's faults. Each conn gets a distinct PRNG stream (seed offset by
// accept order) so scenarios stay deterministic across multiple conns.
type Listener struct {
	inner transport.Listener
	sc    Scenario
	mu    sync.Mutex
	n     int64
}

// WrapListener wraps l with sc.
func WrapListener(l transport.Listener, sc Scenario) *Listener {
	return &Listener{inner: l, sc: sc}
}

func (l *Listener) Accept() (transport.Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	sc := l.sc
	sc.Seed += 2 * l.n // Wrap burns Seed and Seed+1 per conn
	l.n++
	l.mu.Unlock()
	return Wrap(c, sc), nil
}

func (l *Listener) Close() error { return l.inner.Close() }

func (l *Listener) Addr() string { return l.inner.Addr() }

func roll(rng *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	return rng.Float64() < p
}

func rollLatency(rng *rand.Rand, f Faults) time.Duration {
	d := f.Latency
	if f.Jitter > 0 {
		d += time.Duration(rng.Int63n(int64(f.Jitter)))
	}
	return d
}

func flipByte(rng *rand.Rand, m []byte) {
	if len(m) == 0 {
		return
	}
	i := rng.Intn(len(m))
	// XOR with a random non-zero mask so the byte always changes.
	m[i] ^= byte(1 + rng.Intn(255))
}

func cloneMsg(m []byte) []byte {
	cp := make([]byte, len(m))
	copy(cp, m)
	return cp
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fmt.Errorf("%w: %v", transport.ErrTimeout, ctx.Err())
		}
		return ctx.Err()
	}
}

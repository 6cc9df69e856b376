// Package prmi implements parallel remote method invocation between
// parallel components in a distributed framework (Section 2.4 of the
// paper).
//
// A caller cohort of M ranks holds a CallerPort connected to an Endpoint
// served by a callee cohort of N ranks. Methods are described by SIDL
// specs (internal/sidl) carrying the PRMI attributes:
//
//   - independent methods are one-to-one: one caller rank invokes one
//     callee rank with ordinary call semantics (Damevski's non-collective
//     invocation).
//   - collective methods are all-to-all: every participating caller rank
//     invokes together; every callee rank receives the call (ghost
//     invocations when M < N) and every caller receives a return value
//     (ghost returns when M > N) — the SCIRun2 policy.
//   - oneway methods return immediately on the caller; no reply exists.
//
// Simple arguments must hold the same value on every participating caller
// (optionally enforced — the paper notes frameworks may skip the check for
// performance, so the check is a configuration knob). Parallel arguments
// are decomposed arrays: the framework redistributes them from the caller
// cohort's distribution to the callee cohort's registered distribution
// with communication schedules, and moves inout/out parallel data back on
// return.
//
// Invocation delivery is configurable between the two strategies the
// paper contrasts (Figure 5): Eager delivery, where each caller's
// invocation leaves as soon as that rank reaches the call — which can
// deadlock when different but intersecting participant sets make
// consecutive calls — and BarrierDelayed delivery (the DCA solution),
// where a barrier among the participants precedes delivery.
//
// A call is plain blocking RMI: its message goes out once and its reply
// comes back once. Over a session.Conn a call therefore runs exactly once;
// over a raw link it is sent once and fails typed (ErrTimeout, ErrLinkDown),
// leaving re-invocation to the application, as in the paper.
package prmi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// ErrTimeout reports that a bounded wait for a remote reply (or message)
// expired. A call failing with ErrTimeout may have executed on the callee:
// only the reply is known to be missing, so whether to invoke again is the
// application's decision.
var ErrTimeout = errors.New("prmi: timed out")

// ErrLinkDown reports that the link to the peer cohort failed (closed,
// partitioned, a session whose reconnect budget is spent, or otherwise
// unable to carry messages); the link's own error stays in the chain.
// Unlike ErrTimeout, the link will not recover by waiting; callers should
// re-establish the connection or give up.
var ErrLinkDown = errors.New("prmi: link down")

// Link carries messages between the two sides of one port connection.
// Rank numbering is the peer cohort's: Send(j, m) delivers to peer rank j;
// Recv reports which peer rank sent the message. Messages between a fixed
// pair of ranks arrive in order.
//
// Ownership moves with the message: Send takes m over on every path —
// delivered, refused, link down — like transport.Conn.SendOwned,
// and a received message belongs to the receiver, who must Release it.
type Link interface {
	Send(peerRank int, m *Msg) error
	// Recv blocks for the next message, for at most d when d > 0; expiry
	// reports an error matching ErrTimeout.
	Recv(d time.Duration) (peerRank int, m *Msg, err error)
}

// livenessPoll is the receive slice used when a membership view is set, so
// a blocked wait notices a peer being marked down promptly.
const livenessPoll = 5 * time.Millisecond

// recvPoll is Recv bounded by deadline (zero: none) and, when poll is set,
// by livenessPoll, so that a wait can re-check its peers' liveness between
// slices: again reports that only such a slice expired, not the deadline.
func recvPoll(l Link, deadline time.Time, poll bool) (from int, m *Msg, again bool, err error) {
	remain := time.Duration(0)
	if !deadline.IsZero() {
		if remain = time.Until(deadline); remain <= 0 {
			return 0, nil, false, ErrTimeout
		}
	}
	slice := remain
	if poll && (slice <= 0 || slice > livenessPoll) {
		slice = livenessPoll
	}
	from, m, err = l.Recv(slice)
	return from, m, slice != remain && errors.Is(err, ErrTimeout), err
}

// mapLinkErr rewrites transport-level failures into the package's typed
// errors so callers can branch on errors.Is without knowing the link kind.
func mapLinkErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTimeout), errors.Is(err, ErrLinkDown):
		return err
	case errors.Is(err, transport.ErrClosed):
		return fmt.Errorf("%w: %w", ErrLinkDown, err)
	case errors.Is(err, transport.ErrTimeout):
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	default:
		return err
	}
}

// commLink connects two cohorts that live in one communicator group:
// peer rank j is group rank peerBase+j. Within one world the message
// crosses the mailbox by reference — no byte of it is copied or encoded;
// when the peer rank is bound to a connection (comm.ConnectPeer) the
// registered remote codec ships head and lent payload.
type commLink struct {
	c        *comm.Comm
	peerBase int
	tag      int
}

// NewCommLink builds a Link over a shared communicator. Both sides must
// use the same tag and each side's peerBase must point at the other
// cohort's first group rank.
func NewCommLink(c *comm.Comm, peerBase, tag int) Link {
	return &commLink{c: c, peerBase: peerBase, tag: tag}
}

func (l *commLink) Send(peerRank int, m *Msg) error {
	l.c.Send(l.peerBase+peerRank, l.tag, m)
	return nil
}

func (l *commLink) Recv(d time.Duration) (int, *Msg, error) {
	var payload any
	var src int
	if d > 0 {
		var ok bool
		if payload, src, ok = l.c.RecvTimeout(comm.AnySource, l.tag, d); !ok {
			return 0, nil, fmt.Errorf("%w: no message within %v", ErrTimeout, d)
		}
	} else {
		payload, src = l.c.Recv(comm.AnySource, l.tag)
	}
	m, err := AsMsg(payload)
	return src - l.peerBase, m, err
}

// AsMsg recovers the message from a mailbox payload, for Links built on
// comm. Raw bytes from a sender outside this package are taken as a bare
// head, which the receiving port or endpoint then rejects or decodes.
func AsMsg(payload any) (*Msg, error) {
	switch x := payload.(type) {
	case *Msg:
		return x, nil
	case []byte:
		return &Msg{head: x}, nil
	}
	return nil, fmt.Errorf("prmi: link received %T", payload)
}

// connLink is a mesh of transport connections, one per peer rank: the
// genuinely distributed deployment. Each frame is the sender's rank (a
// uvarint, so the peer can attribute it) followed by the message in the
// remote codec's encoding (encodeRemoteMsg); a pump goroutine per
// connection funnels received messages into one queue so Recv can present
// a single stream. No coordinator serializes traffic: each pairwise
// connection is its own.
type connLink struct {
	conns  []transport.Conn
	myRank int

	inbox chan inMsg
	once  sync.Once
}

type inMsg struct {
	src int
	msg *Msg
	err error
}

// NewConnLink builds a Link from per-peer connections. conns[j] must be
// connected to peer rank j. myRank is this side's cohort rank, prefixed
// onto outgoing messages so the peer can attribute them.
func NewConnLink(conns []transport.Conn, myRank int) Link {
	// Buffered so a burst from several peers does not stall their pumps
	// behind one slow Recv; the depth is not load-bearing.
	return &connLink{conns: conns, myRank: myRank, inbox: make(chan inMsg, 64)}
}

// Send frames m for peer peerRank, with the payload lent to the
// connection behind the frame head.
func (l *connLink) Send(peerRank int, m *Msg) error {
	if peerRank < 0 || peerRank >= len(l.conns) {
		m.Release()
		return fmt.Errorf("prmi: peer rank %d outside mesh of %d", peerRank, len(l.conns))
	}
	// The frame head: rank and head length uvarints, the head, the
	// payload's length uvarint and up to 7 bytes of alignment padding.
	buf := bufpool.Get(3*binary.MaxVarintLen64 + 7 + len(m.head))
	e := wire.NewEncoder(buf[:0])
	e.PutUvarint(uint64(l.myRank))
	encodeRemoteMsg(e, m)
	err := l.conns[peerRank].SendOwned(e.Vector())
	bufpool.Put(buf)
	return err
}

// parseFrame splits a received frame into the sender's rank and a message
// viewing the frame's bytes, which takes the frame over.
func parseFrame(frame []byte) (int, *Msg, error) {
	d := wire.NewDecoder(frame)
	src := d.Uvarint()
	if d.Err() != nil || src > math.MaxInt32 {
		bufpool.PutFrame(frame)
		return 0, nil, fmt.Errorf("prmi: corrupt frame: %w", wire.ErrCorrupt)
	}
	m, err := decodeRemoteMsg(d)
	if err != nil {
		bufpool.PutFrame(frame)
		return 0, nil, err
	}
	return int(src), m.(*Msg), nil
}

func (l *connLink) start() {
	l.once.Do(func() {
		for j, conn := range l.conns {
			go func(j int, conn transport.Conn) {
				for {
					frame, err := conn.Recv()
					if err != nil {
						l.inbox <- inMsg{src: j, err: err}
						return
					}
					src, m, err := parseFrame(frame)
					l.inbox <- inMsg{src: src, msg: m, err: err}
					if err != nil {
						return
					}
				}
			}(j, conn)
		}
	})
}

func (l *connLink) Recv(d time.Duration) (int, *Msg, error) {
	l.start()
	var expired <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	select {
	case in := <-l.inbox:
		return in.src, in.msg, in.err
	case <-expired:
		return 0, nil, fmt.Errorf("%w: no message within %v", ErrTimeout, d)
	}
}

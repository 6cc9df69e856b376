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
	"errors"
	"fmt"
	"time"

	"mxn/internal/comm"
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
// delivered, refused, link down — like the owned payloads of
// transport.Conn.SendBatch, and a received message belongs to the
// receiver, who must Release it.
type Link interface {
	Send(peerRank int, m *Msg) error
	// Recv blocks for the next message, for at most d when d > 0; expiry
	// reports an error matching ErrTimeout, a failed link one matching
	// ErrLinkDown.
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

// commLink connects two cohorts that live in one communicator group:
// peer rank j is group rank peerBase+j. Within one world the message
// crosses the mailbox by reference — no byte of it is copied or encoded;
// when the peer rank is bound to a connection (comm.ConnectPeer) the
// registered remote codec ships head and lent payload, and a failed
// binding of the group is the link going down (comm.Comm.PeerErr).
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

// Send hands m to comm, which releases it if its destination is gone; a
// binding of the group that has failed, before or during the send,
// reports ErrLinkDown.
func (l *commLink) Send(peerRank int, m *Msg) error {
	l.c.Send(l.peerBase+peerRank, l.tag, m)
	return l.down()
}

func (l *commLink) Recv(d time.Duration) (int, *Msg, error) {
	payload, src, ok, err := l.c.RecvOrFail(comm.AnySource, l.tag, d)
	switch {
	case err != nil:
		return 0, nil, linkDown(err)
	case !ok:
		return 0, nil, fmt.Errorf("%w: no message within %v", ErrTimeout, d)
	}
	m, err := asMsg(payload)
	return src - l.peerBase, m, err
}

// down reports a failed binding of the link's group as ErrLinkDown.
func (l *commLink) down() error {
	if err := l.c.PeerErr(); err != nil {
		return linkDown(err)
	}
	return nil
}

// linkDown wraps a binding's cause — session.ErrPeerLost,
// transport.ErrClosed, a decode error — in ErrLinkDown.
func linkDown(cause error) error { return fmt.Errorf("%w: %w", ErrLinkDown, cause) }

// sendAll runs send — a loop of Sends on l — as one send phase: on a link
// over a communicator the messages bound for a remote peer are held until
// send returns and then leave as one batch per peer (comm.Comm.Cork), so
// a call's fragments, or a collective's replies, reach the connection in
// one call, and a binding that fails on that flush reports ErrLinkDown.
// Other links send as they go.
func sendAll(l Link, send func() error) error {
	cl, ok := l.(*commLink)
	if !ok {
		return send()
	}
	cl.c.Cork()
	err := send()
	cl.c.Flush()
	if err == nil {
		err = cl.down()
	}
	return err
}

// asMsg recovers the message from a mailbox payload. Raw bytes from a
// sender outside this package are taken as a bare head, which the
// receiving port or endpoint then rejects or decodes.
func asMsg(payload any) (*Msg, error) {
	switch x := payload.(type) {
	case *Msg:
		return x, nil
	case []byte:
		return &Msg{head: x}, nil
	}
	return nil, fmt.Errorf("prmi: link received %T", payload)
}

package prmi

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/session"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// Exactly-once belongs to the session: it delivers every frame once, in
// order, across reconnects, so a call sent once over it runs once. These
// tests drive PRMI over session conns whose physical links fail, and count
// handler executions on the callee side.

// sessionCfg keeps the session's recovery fast for tests.
func sessionCfg() session.Config {
	return session.Config{
		MaxAttempts:      20,
		MaxElapsed:       10 * time.Second,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		HandshakeTimeout: time.Second,
	}
}

// inprocSeq keeps sessionPair's listener addresses distinct.
var inprocSeq atomic.Int64

// sessionPair establishes one session over an in-process listener and
// returns its dialing (caller) and accepted (callee) ends. wrap, when set,
// layers the listener the callee side accepts physical conns from; dial,
// when set, sees each physical conn the caller side dials (n counts from
// 1) and returns the one to use. Everything is closed at cleanup.
func sessionPair(t *testing.T, cfg session.Config, wrap func(transport.Listener) transport.Listener,
	dial func(n int, c transport.Conn) transport.Conn) (cli, srv *session.Conn) {
	t.Helper()
	addr := fmt.Sprintf("prmi-session-%d", inprocSeq.Add(1))
	inner, err := transport.Listen("inproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		inner = wrap(inner)
	}
	lst := session.WrapListener(inner, cfg)
	t.Cleanup(func() { lst.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := lst.Accept()
		accepted <- c
	}()
	var dials atomic.Int32
	cli, err = session.NewConn(func(ctx context.Context) (transport.Conn, error) {
		c, err := transport.DialContext(ctx, "inproc", addr)
		if err != nil || dial == nil {
			return c, err
		}
		return dial(int(dials.Add(1)), c), nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	c := <-accepted
	if c == nil {
		t.Fatal("listener closed before the session was accepted")
	}
	return cli, c.(*session.Conn)
}

// eventually polls cond for up to five seconds. The session counts a
// reconnect only after the install that let traffic through returns, so a
// test that has seen the traffic sees the count a moment later.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestExactlyOnceNonIdempotentUnderDrops: a non-idempotent counter called
// over a session whose physical conns each die after a handful of messages
// executes exactly once per logical call. Frames lost with a dying conn —
// invocations and replies alike — are replayed by the session on the next
// one; the call itself goes out once.
func TestExactlyOnceNonIdempotentUnderDrops(t *testing.T) {
	reconnects := obs.Default().Counter("session.reconnects")
	before := reconnects.Value()
	flapping := func(l transport.Listener) transport.Listener {
		return faultconn.WrapListener(l, faultconn.Scenario{Seed: 1234, FlapAfter: 7})
	}
	cli, srv := sessionPair(t, sessionCfg(), flapping, nil)
	h := newHarness(t, cli, srv)

	const calls = 20
	for i := 1; i <= calls; i++ {
		res, err := boundedCall(t, func() (*Result, error) {
			return h.port.CallIndependent(0, "f", Simple("x", float64(i)))
		})
		if err != nil {
			t.Fatalf("logical call %d failed: %v", i, err)
		}
		if got := res.Return.(float64); got != float64(2*i) {
			t.Fatalf("call %d returned %v, want %d", i, got, 2*i)
		}
		if got := h.runs.Load(); got != int64(i) {
			t.Fatalf("after call %d the handler has run %d times (duplicate or lost execution)", i, got)
		}
	}
	if err := h.port.Close(); err != nil {
		t.Fatal(err)
	}
	<-h.done
	if got := h.runs.Load(); got != calls {
		t.Fatalf("handler executed %d times for %d logical calls", got, calls)
	}
	if !eventually(func() bool { return reconnects.Value() > before }) {
		t.Fatal("no session reconnect; the flapping link never failed under the calls")
	}
}

// holdFirstRecv holds the first frame its Recv reads until release is
// closed, signalling held once it has it: a physical conn whose reader
// has a frame in hand but has not handed it to the session yet.
type holdFirstRecv struct {
	transport.Conn
	once          atomic.Bool
	held, release chan struct{}
}

func (c *holdFirstRecv) Recv() ([]byte, error) {
	m, err := c.Conn.Recv()
	if err == nil && c.once.CompareAndSwap(false, true) {
		close(c.held)
		<-c.release
	}
	return m, err
}

// holdListener wraps the first conn it accepts in a holdFirstRecv.
type holdListener struct {
	transport.Listener
	first *holdFirstRecv
	n     atomic.Int32
}

func (l *holdListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.n.Add(1) != 1 {
		return c, err
	}
	l.first.Conn = c
	return l.first, nil
}

// TestDedupReplaySkipsHandler: a flap forces a session replay of a call
// frame the callee's old conn already read, so the frame reaches the
// callee's session twice. The session drops the second copy by sequence
// number and the handler runs once.
func TestDedupReplaySkipsHandler(t *testing.T) {
	dups := obs.Default().Counter("session.frames_dup_dropped")
	before := dups.Value()
	hold := &holdFirstRecv{held: make(chan struct{}), release: make(chan struct{})}
	released := false
	defer func() {
		if !released {
			close(hold.release)
		}
	}()
	var first *faultconn.Conn
	cli, srv := sessionPair(t, sessionCfg(),
		func(l transport.Listener) transport.Listener { return &holdListener{Listener: l, first: hold} },
		func(n int, c transport.Conn) transport.Conn {
			if n > 1 {
				return c
			}
			first = faultconn.Wrap(c, faultconn.Scenario{})
			return first
		})
	h := newHarness(t, cli, srv)

	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := h.port.CallIndependent(0, "f", Simple("x", 21.0))
		done <- result{res, err}
	}()
	// The callee's first conn has read the call frame and not yet
	// delivered it. Flap the caller's conn: the caller redials, the callee
	// reports nothing delivered, and the caller replays the frame on the
	// new conn, where it is delivered and served.
	select {
	case <-hold.held:
	case <-time.After(10 * time.Second):
		t.Fatal("the call frame never reached the callee's first conn")
	}
	first.Flap()
	var r result
	select {
	case r = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the replayed call was never answered")
	}
	if r.err != nil || r.res.Return.(float64) != 42 {
		t.Fatalf("replayed call: %v, %v", r.res, r.err)
	}
	// Now the old conn hands up the original frame: a duplicate.
	close(hold.release)
	released = true
	if !eventually(func() bool { return dups.Value() > before }) {
		t.Fatal("the session never dropped the held copy of the call frame")
	}
	if err := h.port.Close(); err != nil {
		t.Fatal(err)
	}
	<-h.done
	if n := h.runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times for one call delivered twice", n)
	}
}

// recvReply receives one reply message at a caller rank and decodes its
// head.
func recvReply(t *testing.T, caller *comm.Comm) reply {
	t.Helper()
	payload, _ := caller.Recv(comm.AnySource, 0)
	m := payload.(*Msg)
	defer m.Release()
	if m.kind() != msgReply {
		t.Fatalf("expected a reply, got % x", m.head)
	}
	var rep reply
	if err := decodeReply(m, &rep); err != nil {
		t.Fatal(err)
	}
	rep.msg, rep.simpleOut = nil, nil // views of the released message
	return rep
}

// testCall builds the message of an independent call with one simple
// argument x the way callMsg does, with every header field under the
// test's control.
func testCall(method string, seq, epoch uint64, x float64) *Msg {
	key := wire.NewEncoder(nil)
	key.PutString(method)
	key.PutUvarint(0) // no participants: independent
	var e, simple wire.Encoder
	simple.PutUvarint(1)
	simple.PutString("x")
	simple.PutValue(x)
	putCallHead(&e, seq, epoch, key.Bytes())
	e.PutBytes(simple.Bytes())
	return newMsg(e.Bytes(), nil)
}

// TestDedupEvictionWatermark pins the reply head layout — kind, then
// seq · errText · ret · simpleOut, and nothing after — by round trip: the
// bytes decode field by field in that order, and decodeReply recovers
// every field.
func TestDedupEvictionWatermark(t *testing.T) {
	var sec wire.Encoder
	sec.PutUvarint(1)
	sec.PutString("y")
	sec.PutValue(3.5)
	want := replyMsg{errText: "boom", ret: 42.0, simpleOut: sec.Bytes()}
	var e wire.Encoder
	putReplyHead(&e, 77, &want)

	d := wire.NewDecoder(e.Bytes())
	kind, seq, errText, ret, simpleOut := d.Byte(), d.Uint64(), d.String(), d.Value(), d.BorrowBytes()
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("layout: err %v, %d trailing bytes", d.Err(), d.Remaining())
	}
	if kind != msgReply || seq != 77 || errText != want.errText || ret != want.ret || string(simpleOut) != string(want.simpleOut) {
		t.Fatalf("layout decoded kind %d seq %d err %q ret %v out % x", kind, seq, errText, ret, simpleOut)
	}

	m := newMsg(e.Bytes(), nil)
	defer m.Release()
	var got reply
	if err := decodeReply(m, &got); err != nil {
		t.Fatal(err)
	}
	if got.seq != 77 || got.errText != want.errText || got.ret != want.ret || string(got.simpleOut) != string(want.simpleOut) {
		t.Fatalf("round trip: %+v, want seq 77 and %+v", got.replyMsg, want)
	}
}

// TestCallerRefusesEvictedRetry: a collective call to a callee that never
// answers fails with ErrTimeout after one timeout, having sent one call
// frame — the caller never sends a call again.
func TestCallerRefusesEvictedRetry(t *testing.T) {
	silentCalleeTimesOutOnce(t, func(p *CallerPort) error {
		_, err := p.CallCollective("g", Participation{Ranks: []int{0}}, Simple("x", 1.0))
		return err
	})
}

// TestPendingLimitDropsOldest is the regression test for the deferred
// queue cap: beyond PendingLimit the oldest held messages are shed and
// counted, newest kept.
func TestPendingLimitDropsOldest(t *testing.T) {
	ep := NewEndpoint(matrixIface(t), nil, 0, 1, 1)
	ep.PendingLimit = 4
	before := mDeferredDropped.Value()
	for i := 0; i < 6; i++ {
		ep.enqueue(2, newMsg([]byte{byte(i)}, nil))
	}
	q := ep.pending[2]
	if len(q) != 4 {
		t.Fatalf("queue holds %d messages, limit is 4", len(q))
	}
	if q[0].head[0] != 2 || q[3].head[0] != 5 {
		t.Fatalf("queue kept wrong messages: first=%d last=%d, want 2 and 5", q[0].head[0], q[3].head[0])
	}
	ep.dropPending(2)
	if got := mDeferredDropped.Value() - before; got != 2 {
		t.Fatalf("drop counter advanced by %d, want 2", got)
	}
}

// TestStaleEpochCallRejected: an endpoint with a newer membership view
// refuses a call stamped with an older epoch, and accepts one stamped with
// the current epoch.
func TestStaleEpochCallRejected(t *testing.T) {
	iface := matrixIface(t)
	cs := comm.NewWorld(2).Comms()
	ep := NewEndpoint(iface, NewCommLink(cs[1], 0, 0), 0, 1, 2)
	var runs atomic.Int64
	ep.Handle("f", func(in *Incoming, out *Outgoing) error {
		out.Return = float64(runs.Add(1))
		return nil
	})
	mem := core.NewMembership(2)
	mem.MarkDown(1) // epoch 1 -> 2
	ep.SetMembership(mem)

	before := mStaleEpochCalls.Value()
	if _, err := ep.dispatch(0, testCall("f", 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	rep := recvReply(t, cs[0])
	if !strings.Contains(rep.errText, "stale epoch") {
		t.Fatalf("stale call got %q, want a stale-epoch refusal", rep.errText)
	}
	if runs.Load() != 0 {
		t.Fatal("stale-epoch call reached the handler")
	}
	if mStaleEpochCalls.Value() != before+1 {
		t.Fatal("stale-epoch counter did not advance")
	}

	if _, err := ep.dispatch(0, testCall("f", 2, 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	if rep := recvReply(t, cs[0]); rep.errText != "" || runs.Load() != 1 {
		t.Fatalf("current-epoch call rejected: %q (runs=%d)", rep.errText, runs.Load())
	}
}

// silentLink never delivers anything: every bounded receive expires.
type silentLink struct{}

func (silentLink) Send(_ int, m *Msg) error { m.Release(); return nil }
func (silentLink) Recv(d time.Duration) (int, *Msg, error) {
	if d <= 0 {
		select {}
	}
	time.Sleep(d)
	return 0, nil, fmt.Errorf("%w: silent link", ErrTimeout)
}

// TestNextFromFailsFastOnDeadParticipant: a collective wait on a
// participant that is (or becomes) marked down returns *core.ErrRankDown
// promptly instead of stalling to the timeout.
func TestNextFromFailsFastOnDeadParticipant(t *testing.T) {
	ep := NewEndpoint(matrixIface(t), silentLink{}, 0, 1, 2)
	mem := core.NewMembership(2)
	ep.SetMembership(mem)
	mem.MarkDown(1)
	start := time.Now()
	_, err := ep.nextFrom(1, 0) // unbounded wait, but the rank is dead
	var rd *core.ErrRankDown
	if !errors.As(err, &rd) || rd.Rank != 1 {
		t.Fatalf("err = %v, want *core.ErrRankDown for rank 1", err)
	}
	if time.Since(start) > time.Second {
		t.Fatalf("fast-fail took %v", time.Since(start))
	}

	// Dies mid-wait: detection must come from the liveness poll.
	mem2 := core.NewMembership(2)
	ep.SetMembership(mem2)
	go func() {
		time.Sleep(30 * time.Millisecond)
		mem2.MarkDown(1)
	}()
	_, err = ep.nextFrom(1, 0)
	if !errors.As(err, &rd) || rd.Rank != 1 {
		t.Fatalf("mid-wait death: err = %v, want *core.ErrRankDown for rank 1", err)
	}
}

// TestCallRankDownFailsFastMidWait: the caller side of the same contract —
// a blocking call whose target dies mid-wait returns the typed error
// instead of hanging on a reply that will never come.
func TestCallRankDownFailsFastMidWait(t *testing.T) {
	w := comm.NewWorld(2)
	defer w.Kill(1) // releases the unanswered call
	port := NewCallerPort(matrixIface(t), NewCommLink(w.Comms()[0], 1, 0), 0, 1, Eager)
	mem := core.NewMembership(1)
	port.SetMembership(mem)
	go func() {
		time.Sleep(30 * time.Millisecond)
		mem.MarkDown(0)
	}()
	_, err := boundedCall(t, func() (*Result, error) {
		return port.CallIndependent(0, "f", Simple("x", 1.0))
	})
	var rd *core.ErrRankDown
	if !errors.As(err, &rd) || rd.Rank != 0 {
		t.Fatalf("err = %v, want *core.ErrRankDown for rank 0", err)
	}
	// Dead target up front: refused before anything is sent.
	_, err = port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.As(err, &rd) {
		t.Fatalf("call to known-dead rank: %v, want *core.ErrRankDown", err)
	}
}

package prmi

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/core"
	"mxn/internal/faultconn"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// dedupHarness wires a 1×1 caller/callee pair whose handlers are
// deliberately NOT idempotent: each invocation bumps a callee-side
// counter. Under the exactly-once layer the counter must equal the number
// of logical calls no matter how many retry attempts the fault mix forces.
type dedupHarness struct {
	port  *CallerPort
	count atomic.Int64
	done  chan struct{}
}

func newDedupHarness(t *testing.T, sc faultconn.Scenario) *dedupHarness {
	t.Helper()
	iface := matrixIface(t)
	fc, peer := faultconn.Pipe(sc)

	h := &dedupHarness{done: make(chan struct{})}
	ep := NewEndpoint(iface, NewConnLink([]transport.Conn{peer}, 0), 0, 1, 1)
	ep.Handle("f", func(in *Incoming, out *Outgoing) error {
		out.Return = float64(h.count.Add(1))
		return nil
	})
	ep.Handle("h", func(in *Incoming, out *Outgoing) error {
		h.count.Add(1)
		return nil
	})
	go func() {
		defer close(h.done)
		ep.Serve()
	}()
	link := NewConnLink([]transport.Conn{fc}, 0)
	t.Cleanup(func() {
		fc.Close()
		drainLink(link)
	})
	h.port = NewCallerPort(iface, link, 0, 1, Eager)
	return h
}

// TestExactlyOnceNonIdempotentUnderDrops is the acceptance check for the
// exactly-once upgrade: a non-idempotent counter method driven through the
// retry policy over a link that drops ~30% of messages in each direction
// executes exactly once per logical call. Dropped invocations force
// resends (the handler never ran); dropped replies force replays (the
// handler ran — the callee must answer from its dedup table, not re-run).
func TestExactlyOnceNonIdempotentUnderDrops(t *testing.T) {
	sc := faultconn.Scenario{
		Seed: 1234,
		Send: faultconn.Faults{Drop: 0.3},
		Recv: faultconn.Faults{Drop: 0.3},
	}
	h := newDedupHarness(t, sc)
	h.port.SetRetryPolicy(RetryPolicy{
		Timeout:     50 * time.Millisecond,
		MaxAttempts: 15,
		Backoff:     time.Millisecond,
	})
	retriesBefore := mRetries.Value()
	hitsBefore := mDedupHits.Value()

	const calls = 20
	for i := 1; i <= calls; i++ {
		res, err := boundedCall(t, func() (*Result, error) {
			return h.port.CallIndependent(0, "f", Simple("x", float64(i)))
		})
		if err != nil {
			t.Fatalf("logical call %d failed: %v", i, err)
		}
		// The counter value the handler returned is also the logical call
		// number — any lost or duplicated execution desynchronizes it.
		if got := res.Return.(float64); got != float64(i) {
			t.Fatalf("call %d returned count %v (duplicate or lost execution)", i, got)
		}
	}
	if got := h.count.Load(); got != calls {
		t.Fatalf("handler executed %d times for %d logical calls", got, calls)
	}
	if mRetries.Value() == retriesBefore {
		t.Fatal("fault mix forced no retries; the exactly-once path was not exercised")
	}
	if mDedupHits.Value() == hitsBefore {
		t.Fatal("no dedup hits recorded; dropped replies never replayed from the table")
	}
}

// recvReplyRaw reads one reply frame off the raw caller-side conn of a
// connLink mesh and decodes its head.
func recvReplyRaw(t *testing.T, c transport.Conn) reply {
	t.Helper()
	raw, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	_, m, err := parseFrame(raw)
	if err != nil || m.kind() != msgReply {
		t.Fatalf("expected a reply frame, got % x (%v)", raw, err)
	}
	defer m.Release()
	var rep reply
	if err := decodeReply(m, &rep); err != nil {
		t.Fatal(err)
	}
	rep.msg, rep.simpleOut = nil, nil // views of the released frame
	return rep
}

// testCall builds the message of an independent call with one simple
// argument x the way callMsg does, with every header field under the
// test's control.
func testCall(method string, seq, callID, epoch uint64, x float64) *Msg {
	key := wire.NewEncoder(nil)
	key.PutString(method)
	key.PutUvarint(0) // no participants: independent
	var e, simple wire.Encoder
	simple.PutUvarint(1)
	simple.PutString("x")
	simple.PutValue(x)
	putCallHead(&e, seq, callID, epoch, key.Bytes())
	e.PutBytes(simple.Bytes())
	return newMsg(e.Bytes(), nil)
}

// TestDedupReplaySkipsHandler drives dispatch directly with two
// attempts of the same logical call: the second must replay the cached
// reply (re-sequenced for the retry) without running the handler, and a
// duplicated oneway invocation must be swallowed.
func TestDedupReplaySkipsHandler(t *testing.T) {
	iface := matrixIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	ep := NewEndpoint(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, 1)
	var runs atomic.Int64
	ep.Handle("f", func(in *Incoming, out *Outgoing) error {
		out.Return = float64(runs.Add(1))
		return nil
	})
	ep.Handle("h", func(in *Incoming, out *Outgoing) error {
		runs.Add(1)
		return nil
	})

	if _, err := ep.dispatch(0, testCall("f", 1, 7, 0, 1.0)); err != nil {
		t.Fatal(err)
	}
	r1 := recvReplyRaw(t, b)
	if _, err := ep.dispatch(0, testCall("f", 9, 7, 0, 1.0)); err != nil {
		t.Fatal(err)
	}
	r2 := recvReplyRaw(t, b)
	if runs.Load() != 1 {
		t.Fatalf("handler ran %d times for one logical call", runs.Load())
	}
	if r1.ret.(float64) != 1 || r2.ret.(float64) != 1 {
		t.Fatalf("replayed return diverged: %v vs %v", r1.ret, r2.ret)
	}
	if r2.seq != 9 {
		t.Fatalf("replay kept stale seq %d; caller would discard it", r2.seq)
	}

	// Oneway duplicate: no reply exists to replay; the duplicate is
	// swallowed and the handler still runs once.
	for _, seq := range []uint64{10, 11} {
		if _, err := ep.dispatch(0, testCall("h", seq, 8, 0, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("oneway executed %d times total, want 2 (one f + one h)", runs.Load())
	}
}

// TestDedupEvictionWatermark fills a capacity-1 table so the first call's
// entry is evicted, then retries it: the endpoint must refuse (outcome
// unknown) and the surviving reply must carry the advanced watermark.
func TestDedupEvictionWatermark(t *testing.T) {
	iface := matrixIface(t)
	a, b := transport.Pipe()
	defer a.Close()
	ep := NewEndpoint(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, 1)
	ep.DedupCapacity = 1
	var runs atomic.Int64
	ep.Handle("f", func(in *Incoming, out *Outgoing) error {
		out.Return = float64(runs.Add(1))
		return nil
	})

	before := mDedupEvictions.Value()
	ep.dispatch(0, testCall("f", 1, 1, 0, 1.0))
	recvReplyRaw(t, b)
	ep.dispatch(0, testCall("f", 2, 2, 0, 1.0))
	r2 := recvReplyRaw(t, b)
	if r2.watermark != 2 {
		t.Fatalf("reply watermark = %d after evicting callID 1, want 2", r2.watermark)
	}
	if mDedupEvictions.Value() != before+1 {
		t.Fatalf("eviction counter advanced by %d, want 1", mDedupEvictions.Value()-before)
	}

	ep.dispatch(0, testCall("f", 3, 1, 0, 1.0))
	r3 := recvReplyRaw(t, b)
	if !strings.Contains(r3.errText, "watermark") {
		t.Fatalf("retry of evicted call got %q, want a watermark refusal", r3.errText)
	}
	if runs.Load() != 2 {
		t.Fatalf("handler ran %d times; the evicted retry must not re-execute", runs.Load())
	}
}

// TestCallerRefusesEvictedRetry: once the acked watermark passes a callID,
// the caller itself refuses to send with a typed error instead of risking
// re-execution on the callee.
func TestCallerRefusesEvictedRetry(t *testing.T) {
	a, _ := transport.Pipe()
	defer a.Close()
	port := NewCallerPort(matrixIface(t), NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
	port.watermarks[0] = 5 // as if the callee acked evictions past our next callID
	_, err := port.CallIndependent(0, "f", Simple("x", 1.0))
	var de *DedupEvictedError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *DedupEvictedError", err)
	}
	if de.Watermark != 5 || de.Target != 0 {
		t.Fatalf("error carries %+v", de)
	}
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
	a, b := transport.Pipe()
	defer a.Close()
	ep := NewEndpoint(iface, NewConnLink([]transport.Conn{a}, 0), 0, 1, 2)
	var runs atomic.Int64
	ep.Handle("f", func(in *Incoming, out *Outgoing) error {
		out.Return = float64(runs.Add(1))
		return nil
	})
	mem := core.NewMembership(2)
	mem.MarkDown(1) // epoch 1 -> 2
	ep.SetMembership(mem)

	before := mStaleEpochCalls.Value()
	if _, err := ep.dispatch(0, testCall("f", 1, 1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	rep := recvReplyRaw(t, b)
	if !strings.Contains(rep.errText, "stale epoch") {
		t.Fatalf("stale call got %q, want a stale-epoch refusal", rep.errText)
	}
	if runs.Load() != 0 {
		t.Fatal("stale-epoch call reached the handler")
	}
	if mStaleEpochCalls.Value() != before+1 {
		t.Fatal("stale-epoch counter did not advance")
	}

	if _, err := ep.dispatch(0, testCall("f", 2, 2, 2, 1.0)); err != nil {
		t.Fatal(err)
	}
	if rep := recvReplyRaw(t, b); rep.errText != "" || runs.Load() != 1 {
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
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close() // returns the unanswered call's frame
	port := NewCallerPort(matrixIface(t), NewConnLink([]transport.Conn{a}, 0), 0, 1, Eager)
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
	// Dead target up front: refused before any attempt is sent.
	_, err = port.CallIndependent(0, "f", Simple("x", 1.0))
	if !errors.As(err, &rd) {
		t.Fatalf("call to known-dead rank: %v, want *core.ErrRankDown", err)
	}
}

package prmi

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

// The failure matrix: fault scenarios crossed with every SIDL invocation
// kind, over two links, each under a ConnectPeer binding and a CommLink —
// the path the benchmark measures. The contract under test is the one
// DESIGN.md's failure model promises: a call is sent once and terminates
// within a bounded time, never a hang, never a panic.
//
//   - Over a raw pipe nothing recovers a lost message: the call succeeds
//     or fails with the matching typed sentinel (ErrTimeout for lost
//     messages, ErrLinkDown for a dead link).
//   - Over a session.Conn the session recovers every flap, duplicate and
//     reordering, so the call succeeds and its handler runs exactly once;
//     a link that never carries a frame spends the session's budget and
//     ends in ErrLinkDown with session.ErrPeerLost underneath.

// outcome constraints for one matrix cell.
const (
	wantSuccess   = "success"
	wantTimeout   = "timeout"   // errors.Is(err, ErrTimeout)
	wantLinkDown  = "linkdown"  // errors.Is(err, ErrLinkDown)
	wantTerminate = "terminate" // success or error, but bounded and panic-free
)

func matrixIface(t *testing.T) *sidl.Interface {
	t.Helper()
	pkg, err := sidl.Parse(`package p; interface I {
		independent double f(in double x);
		collective double g(in double x);
		independent oneway void h(in double x);
	}`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	return iface
}

// harness wires a 1×1 caller/callee pair of matrixIface over the two ends
// of a link. Every handler counts its executions — the callee-side ground
// truth for exactly-once — and f and g return twice their argument.
type harness struct {
	port *CallerPort
	runs atomic.Int64
	done chan struct{} // closed when Serve returns
}

// newHarness couples a caller world and a callee world over the two ends
// of a link (comm.ConnectPeer), serves the callee and builds the port on
// the caller. At cleanup both bindings close and every rank is killed,
// which releases what the mailboxes still hold.
func newHarness(t *testing.T, caller, callee transport.Conn) *harness {
	t.Helper()
	iface := matrixIface(t)
	h := &harness{done: make(chan struct{})}
	c := couple(1, 1, caller, callee)
	ep := NewEndpoint(iface, c.calleeLink(0), 0, 1, 1)
	double := func(in *Incoming, out *Outgoing) error {
		h.runs.Add(1)
		out.Return = in.Simple["x"].(float64) * 2
		return nil
	}
	ep.Handle("f", double)
	ep.Handle("g", double)
	ep.Handle("h", func(*Incoming, *Outgoing) error {
		h.runs.Add(1)
		return nil
	})
	go func() {
		defer close(h.done)
		ep.Serve()
	}()
	t.Cleanup(func() {
		c.close()
		<-h.done
	})
	h.port = NewCallerPort(iface, c.callerLink(0), 0, 1, Eager)
	return h
}

// boundedCall runs call with a hard termination deadline; a hang fails the
// test with a goroutine dump via the shared watchdog pattern.
func boundedCall(t *testing.T, call func() (*Result, error)) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := call()
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(10 * time.Second):
		t.Fatal("call did not terminate within the watchdog deadline")
		return nil, nil
	}
}

func checkOutcome(t *testing.T, want string, res *Result, err error) {
	t.Helper()
	switch want {
	case wantSuccess:
		if err != nil {
			t.Fatalf("want success, got %v", err)
		}
	case wantTimeout:
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("want ErrTimeout, got %v", err)
		}
	case wantLinkDown:
		if !errors.Is(err, ErrLinkDown) {
			t.Fatalf("want ErrLinkDown, got %v", err)
		}
	case wantTerminate:
		// Bounded termination without panic is the whole assertion; both
		// success and error are legal (a corrupted frame may still parse,
		// may fail the binding with comm's decode error, or may draw any
		// application-level decode error).
		t.Logf("terminated: res=%v err=%v", res, err)
	}
}

// matrixKinds are the three invocation kinds every cell is run with.
var matrixKinds = []struct {
	kind string
	call func(p *CallerPort) (*Result, error)
}{
	{"independent", func(p *CallerPort) (*Result, error) {
		return p.CallIndependent(0, "f", Simple("x", 21.0))
	}},
	{"collective", func(p *CallerPort) (*Result, error) {
		return p.CallCollective("g", Participation{Ranks: []int{0}}, Simple("x", 21.0))
	}},
	{"oneway", func(p *CallerPort) (*Result, error) {
		return p.CallIndependent(0, "h", Simple("x", 1.0))
	}},
}

// outcomeOf picks a cell's expected outcome for one invocation kind.
func outcomeOf(kind, independent, collective, oneway string) string {
	switch kind {
	case "independent":
		return independent
	case "collective":
		return collective
	}
	return oneway
}

func TestFailureMatrix(t *testing.T) {
	// Raw pipe: the fault layer wraps the caller's end, so Send faults hit
	// invocations and Recv faults hit replies. Every call is sent once and
	// waits 150ms for its reply.
	raw := []struct {
		name      string
		sc        faultconn.Scenario
		partition bool // hard-partition the link before calling
		// expected outcome per call kind
		independent, collective, oneway string
	}{
		{
			name:        "clean",
			sc:          faultconn.Scenario{Seed: 1},
			independent: wantSuccess, collective: wantSuccess, oneway: wantSuccess,
		},
		{
			// Every invocation silently vanishes and the typed timeout
			// surfaces. A oneway call succeeds by definition: there is no
			// reply to wait for, and the send itself was accepted.
			name:        "drop-all",
			sc:          faultconn.Scenario{Seed: 2, Send: faultconn.Faults{Drop: 1}},
			independent: wantTimeout, collective: wantTimeout, oneway: wantSuccess,
		},
		{
			// Replies vanish instead: the callee executes, the caller
			// cannot know — whether to invoke again is its decision.
			name:        "drop-replies",
			sc:          faultconn.Scenario{Seed: 3, Recv: faultconn.Faults{Drop: 1}},
			independent: wantTimeout, collective: wantTimeout, oneway: wantSuccess,
		},
		{
			// One flipped byte per outgoing frame. Over the raw pipe there
			// is no checksum (the TCP path adds CRC-32C framing), so the
			// frame may decode to garbage, to a valid-but-different call,
			// or fail attribution — the guarantee is bounded, panic-free
			// termination, not a particular error.
			name:        "corrupt",
			sc:          faultconn.Scenario{Seed: 4, Send: faultconn.Faults{Corrupt: 1}},
			independent: wantTerminate, collective: wantTerminate, oneway: wantTerminate,
		},
		{
			// The link dies before the call: every kind sees the typed
			// link-down error immediately.
			name:        "partition",
			sc:          faultconn.Scenario{Seed: 5},
			partition:   true,
			independent: wantLinkDown, collective: wantLinkDown, oneway: wantLinkDown,
		},
		{
			// A slow peer: 20ms each way is well inside the 150ms wait, so
			// every kind succeeds — slowness alone must not turn into
			// errors.
			name: "slow-peer",
			sc: faultconn.Scenario{
				Seed: 6,
				Send: faultconn.Faults{Latency: 20 * time.Millisecond},
				Recv: faultconn.Faults{Latency: 20 * time.Millisecond},
			},
			independent: wantSuccess, collective: wantSuccess, oneway: wantSuccess,
		},
		{
			// Duplicated and reordered frames. With this seed no call
			// frame is held back for reordering (a held frame would wait
			// for a successor that, with one message per call, never
			// comes), and a duplicated reply is discarded by sequence.
			name: "dup-reorder",
			sc: faultconn.Scenario{
				Seed: 7,
				Send: faultconn.Faults{Dup: 0.5, Reorder: 0.5},
				Recv: faultconn.Faults{Dup: 0.5},
			},
			independent: wantSuccess, collective: wantSuccess, oneway: wantSuccess,
		},
	}
	for _, tc := range raw {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range matrixKinds {
				t.Run(k.kind, func(t *testing.T) {
					fc, peer := faultconn.Pipe(tc.sc)
					h := newHarness(t, fc, peer)
					h.port.SetTimeout(150 * time.Millisecond)
					if tc.partition {
						fc.Partition()
					}
					want := outcomeOf(k.kind, tc.independent, tc.collective, tc.oneway)
					res, err := boundedCall(t, func() (*Result, error) { return k.call(h.port) })
					checkOutcome(t, want, res, err)
					if want == wantSuccess && k.kind != "oneway" {
						if res == nil || res.Return.(float64) != 42 {
							t.Fatalf("successful call returned %v", res)
						}
					}
				})
			}
		})
	}

	// Session: PRMI over a session.Conn whose physical conns, accepted
	// through a faultconn listener, carry the faults. No timeout is set:
	// the session either delivers or gives up.
	sessions := []struct {
		name string
		sc   faultconn.Scenario
		// dead: the listener goes away once the session is up, so no
		// redial connects and the session spends a small budget.
		dead bool
	}{
		{
			// Every physical conn dies after three messages: a handshake
			// and one frame per incarnation.
			name: "session-flap",
			sc:   faultconn.Scenario{Seed: 8, FlapAfter: 3},
		},
		{
			// Duplicated frames are dropped by sequence number (a
			// duplicated handshake frame costs a reconnect).
			name: "session-duplicate",
			sc: faultconn.Scenario{
				Seed: 9,
				Send: faultconn.Faults{Dup: 0.5},
				Recv: faultconn.Faults{Dup: 0.5},
			},
		},
		{
			// A reordered frame is a sequence gap, and a held frame with
			// no successor stalls the conn until it flaps; either way the
			// session reconnects and replays.
			name: "session-reorder",
			sc: faultconn.Scenario{
				Seed:      10,
				Send:      faultconn.Faults{Reorder: 0.25},
				Recv:      faultconn.Faults{Reorder: 0.25},
				FlapEvery: 40 * time.Millisecond,
			},
		},
		{
			// The link never carries a frame: the one physical conn admits
			// the handshake and flaps on the call frame, and nothing
			// answers the redials.
			name: "session-dead",
			sc:   faultconn.Scenario{Seed: 11, FlapAfter: 2},
			dead: true,
		},
	}
	for _, tc := range sessions {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range matrixKinds {
				t.Run(k.kind, func(t *testing.T) {
					cfg := sessionCfg()
					var raw transport.Listener
					wrap := func(l transport.Listener) transport.Listener {
						raw = l
						return faultconn.WrapListener(l, tc.sc)
					}
					if tc.dead {
						cfg.MaxAttempts = 3
					}
					cli, srv := sessionPair(t, cfg, wrap, nil)
					if tc.dead {
						raw.Close()
					}
					h := newHarness(t, cli, srv)
					recoveries := func() uint64 {
						return obs.Default().Counter("session.reconnects").Value() +
							obs.Default().Counter("session.frames_dup_dropped").Value()
					}
					before := recoveries()
					res, err := boundedCall(t, func() (*Result, error) { return k.call(h.port) })
					switch {
					case tc.dead && k.kind == "oneway":
						// Accepted into the session's replay buffer; it
						// never reaches the callee.
						checkOutcome(t, wantSuccess, res, err)
					case tc.dead:
						checkOutcome(t, wantLinkDown, res, err)
						if !errors.Is(err, session.ErrPeerLost) {
							t.Fatalf("link-down error %v does not carry session.ErrPeerLost", err)
						}
						if n := h.runs.Load(); n != 0 {
							t.Fatalf("handler ran %d times over a link that carried nothing", n)
						}
					default:
						checkOutcome(t, wantSuccess, res, err)
						if k.kind != "oneway" && res.Return.(float64) != 42 {
							t.Fatalf("successful call returned %v", res.Return)
						}
						// Shutdown rides behind the call, so once Serve
						// returns the handler has run as often as it ever
						// will.
						if err := h.port.Close(); err != nil {
							t.Fatal(err)
						}
						<-h.done
						if n := h.runs.Load(); n != 1 {
							t.Fatalf("handler ran %d times for one call", n)
						}
						if !eventually(func() bool { return recoveries() > before }) {
							t.Fatal("the session neither reconnected nor dropped a duplicate: the fault never hit")
						}
					}
				})
			}
		})
	}
}

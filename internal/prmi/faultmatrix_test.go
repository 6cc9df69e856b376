package prmi

import (
	"errors"
	"testing"
	"time"

	"mxn/internal/faultconn"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

// The failure matrix: every fault scenario the chaos layer can inject,
// crossed with every SIDL invocation kind. The contract under test is the
// one DESIGN.md's failure model promises: a call over a faulty link
// terminates within a bounded time with either a success (the retry layer
// pushed it through) or an error — never a hang, never a panic — and
// where the fault category is unambiguous the error is the matching typed
// sentinel (ErrTimeout for lost messages, ErrLinkDown for a dead link).

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

// matrixHarness wires a 1×1 caller/callee pair over a fault-injected pipe.
// The fault layer wraps the caller's end, so Send faults hit invocations
// and Recv faults hit replies.
type matrixHarness struct {
	port  *CallerPort
	fc    *faultconn.Conn
	done  chan struct{}
	survd chan struct{}
}

func newMatrixHarness(t *testing.T, sc faultconn.Scenario) *matrixHarness {
	t.Helper()
	iface := matrixIface(t)
	fc, peer := faultconn.Pipe(sc)

	h := &matrixHarness{fc: fc, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		ep := NewEndpoint(iface, NewConnLink([]transport.Conn{peer}, 0), 0, 1, 1)
		double := func(in *Incoming, out *Outgoing) error {
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		}
		ep.Handle("f", double)
		ep.Handle("g", double)
		ep.Handle("h", func(in *Incoming, out *Outgoing) error { return nil })
		ep.Serve()
	}()

	link := NewConnLink([]transport.Conn{fc}, 0)
	t.Cleanup(func() {
		fc.Close()
		drainLink(link)
	})
	h.port = NewCallerPort(iface, link, 0, 1, Eager)
	h.port.SetRetryPolicy(RetryPolicy{
		Timeout:     150 * time.Millisecond,
		MaxAttempts: 2,
		Backoff:     5 * time.Millisecond,
	})
	return h
}

// drainLink releases the messages a link whose connections are closed
// still holds — duplicates and stale replies nobody asked for — up to the
// error its pump reports on the way out.
func drainLink(l Link) {
	for {
		_, m, err := l.Recv(time.Second)
		if err != nil {
			return
		}
		m.Release()
	}
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
		// success and error are legal (a corrupted frame may still parse —
		// e.g. a flipped bit in the rank prefix — or may draw any
		// application-level decode error).
		t.Logf("terminated: res=%v err=%v", res, err)
	}
}

func TestFailureMatrix(t *testing.T) {
	scenarios := []struct {
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
			// Every invocation silently vanishes. The retry layer tries
			// again, the link eats that too, and the typed timeout
			// surfaces. A oneway call succeeds by definition: there is no
			// reply to wait for, and the send itself was accepted.
			name:        "drop-all",
			sc:          faultconn.Scenario{Seed: 2, Send: faultconn.Faults{Drop: 1}},
			independent: wantTimeout, collective: wantTimeout, oneway: wantSuccess,
		},
		{
			// Replies vanish instead: the callee executes, the caller
			// cannot know. Retry is safe for independent calls precisely
			// because re-execution of an idempotent method is harmless.
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
			// link-down error immediately, retries included.
			name:        "partition",
			sc:          faultconn.Scenario{Seed: 5},
			partition:   true,
			independent: wantLinkDown, collective: wantLinkDown, oneway: wantLinkDown,
		},
		{
			// A slow peer: 20ms each way is well inside the 150ms attempt
			// budget, so every kind succeeds — slowness alone must not
			// turn into errors.
			name: "slow-peer",
			sc: faultconn.Scenario{
				Seed: 6,
				Send: faultconn.Faults{Latency: 20 * time.Millisecond},
				Recv: faultconn.Faults{Latency: 20 * time.Millisecond},
			},
			independent: wantSuccess, collective: wantSuccess, oneway: wantSuccess,
		},
		{
			// Duplicated and reordered frames: sequence numbers and
			// content-based matching absorb both without error.
			name: "dup-reorder",
			sc: faultconn.Scenario{
				Seed: 7,
				Send: faultconn.Faults{Dup: 0.5, Reorder: 0.5},
				Recv: faultconn.Faults{Dup: 0.5},
			},
			independent: wantSuccess, collective: wantSuccess, oneway: wantSuccess,
		},
	}

	for _, tc := range scenarios {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			kinds := []struct {
				kind string
				want string
				call func(h *matrixHarness) (*Result, error)
			}{
				{"independent", tc.independent, func(h *matrixHarness) (*Result, error) {
					return h.port.CallIndependent(0, "f", Simple("x", 21.0))
				}},
				{"collective", tc.collective, func(h *matrixHarness) (*Result, error) {
					return h.port.CallCollective("g", Participation{Ranks: []int{0}}, Simple("x", 21.0))
				}},
				{"oneway", tc.oneway, func(h *matrixHarness) (*Result, error) {
					return h.port.CallIndependent(0, "h", Simple("x", 1.0))
				}},
			}
			for _, k := range kinds {
				k := k
				t.Run(k.kind, func(t *testing.T) {
					h := newMatrixHarness(t, tc.sc)
					if tc.partition {
						h.fc.Partition()
					}
					res, err := boundedCall(t, func() (*Result, error) { return k.call(h) })
					checkOutcome(t, k.want, res, err)
					if k.want == wantSuccess && k.kind != "oneway" {
						if res == nil || res.Return.(float64) != 42 {
							t.Fatalf("successful call returned %v", res)
						}
					}
				})
			}
		})
	}
}

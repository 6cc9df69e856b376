package prmi

// Tests of the calls an endpoint does not serve at once: while it collects
// a collective invocation it receives from the participant it waits on
// alone, so every other caller's calls wait in the link, in arrival order,
// and none is dropped.

import (
	"slices"
	"sync"
	"testing"
	"time"

	"mxn/internal/dad"
)

// testFabrics couples the cohorts in one world, and in two worlds over a
// session over TCP, where a receive matched by source is served from the
// remote path's mailbox.
var testFabrics = []struct {
	name string
	make func(t testing.TB, m, n int) fabric
}{
	{"world", worldFabric},
	{"session", func(t testing.TB, m, n int) fabric { return sessionFabric(t, m, n, 0, false) }},
}

// gatherSignal closes waiting at the first receive matched by source: the
// endpoint has committed to a collective invocation and is collecting it.
type gatherSignal struct {
	Link
	once    sync.Once
	waiting chan struct{}
}

func (l *gatherSignal) Recv(from int, d time.Duration) (int, *Msg, error) {
	if from != AnyPeer {
		l.once.Do(func() { close(l.waiting) })
	}
	return l.Link.Recv(from, d)
}

// heldRun stands one callee rank up against m callers of matrixIface, has
// callers 0 and 1 invoke g together, and runs send, which sends the calls
// under test from the other callers, while the endpoint collects caller
// 1's half; then caller 1 invokes, every caller closes, and heldRun
// returns the x of every h call the endpoint ran, in the order it ran them.
func heldRun(t *testing.T, f fabric, m int, send func(ports []*CallerPort)) []float64 {
	t.Helper()
	defer f.close()
	iface := matrixIface(t)
	link := &gatherSignal{Link: f.callees[0], waiting: make(chan struct{})}
	ep := NewEndpoint(iface, link, 0, 1, m)
	var ran []float64
	ep.Handle("g", func(in *Incoming, out *Outgoing) error { out.Return = in.Simple["x"]; return nil })
	ep.Handle("h", func(in *Incoming, out *Outgoing) error {
		ran = append(ran, in.Simple["x"].(float64))
		return nil
	})
	served := make(chan error, 1)
	go func() { served <- ep.Serve() }()
	ports := make([]*CallerPort, m)
	for i := range ports {
		ports[i] = NewCallerPort(iface, f.callers[i], i, 1, Eager)
	}
	part := Participation{Ranks: []int{0, 1}}
	first := make(chan error, 1)
	go func() {
		_, err := ports[0].CallCollective("g", part, Simple("x", 1.0))
		first <- err
	}()
	select {
	case <-link.waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("the endpoint never started collecting caller 0's call")
	}
	send(ports)
	if _, err := ports[1].CallCollective("g", part, Simple("x", 1.0)); err != nil {
		t.Fatalf("caller 1: %v", err)
	}
	if err := <-first; err != nil {
		t.Fatalf("caller 0: %v", err)
	}
	for i, p := range ports {
		if err := p.Close(); err != nil {
			t.Fatalf("caller %d close: %v", i, err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	return ran
}

// TestHeldBackOnewayCallsAllRun: a third caller fires 1,100 one-way calls
// while the endpoint collects a collective invocation; every one of them
// runs exactly once after it.
func TestHeldBackOnewayCallsAllRun(t *testing.T) {
	const calls = 1100
	for _, fab := range testFabrics {
		t.Run(fab.name, func(t *testing.T) {
			ran := heldRun(t, fab.make(t, 3, 1), 3, func(ports []*CallerPort) {
				for k := 0; k < calls; k++ {
					if _, err := ports[2].CallIndependent(0, "h", Simple("x", float64(k))); err != nil {
						t.Fatal(err)
					}
				}
			})
			runs := make([]int, calls)
			for _, x := range ran {
				runs[int(x)]++
			}
			for k, n := range runs {
				if n != 1 {
					t.Fatalf("one-way call %d ran %d times (%d of %d calls ran)", k, n, len(ran), calls)
				}
			}
		})
	}
}

// TestHeldCallsServedInArrivalOrder: two callers take turns firing 20
// one-way calls while the endpoint collects a collective invocation; the
// calls run in the order they arrived.
func TestHeldCallsServedInArrivalOrder(t *testing.T) {
	const calls = 20
	for _, fab := range testFabrics {
		t.Run(fab.name, func(t *testing.T) {
			ran := heldRun(t, fab.make(t, 4, 1), 4, func(ports []*CallerPort) {
				for k := 0; k < calls; k++ {
					if _, err := ports[2+k%2].CallIndependent(0, "h", Simple("x", float64(k))); err != nil {
						t.Fatal(err)
					}
				}
			})
			want := make([]float64, calls)
			for k := range want {
				want[k] = float64(k)
			}
			if !slices.Equal(ran, want) {
				t.Fatalf("one-way calls ran in the order %v, want %v", ran, want)
			}
		})
	}
}

// TestHeldCallsKeepEachCallersOrder: calls held back by one collection
// and taken up by the next keep their caller's order. Collecting tally,
// the endpoint holds caller 1's pulse, then caller 2's poke 1, pulse and
// poke 2; serving caller 1's pulse it takes caller 2's held calls up and
// holds poke 1 back again, which must still run before poke 2.
func TestHeldCallsKeepEachCallersOrder(t *testing.T) {
	for _, fab := range testFabrics {
		t.Run(fab.name, func(t *testing.T) {
			f := fab.make(t, 3, 1)
			defer f.close()
			iface := calcInterface(t)
			link := &gatherSignal{Link: f.callees[0], waiting: make(chan struct{})}
			ep := NewEndpoint(iface, link, 0, 1, 3)
			var ran []int
			ep.Handle("tally", func(in *Incoming, out *Outgoing) error { out.Return = 1.0; return nil })
			ep.Handle("pulse", func(*Incoming, *Outgoing) error { ran = append(ran, 0); return nil })
			ep.Handle("poke", func(in *Incoming, out *Outgoing) error {
				ran = append(ran, int(in.Simple["n"].(int64)))
				return nil
			})
			served := make(chan error, 1)
			go func() { served <- ep.Serve() }()
			ports := make([]*CallerPort, 3)
			for i := range ports {
				ports[i] = NewCallerPort(iface, f.callers[i], i, 1, Eager)
			}
			all, pair := Participation{Ranks: []int{0, 1, 2}}, Participation{Ranks: []int{1, 2}}
			var wg sync.WaitGroup
			tally := func(i int, before func() error) {
				defer wg.Done()
				if err := before(); err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				if _, err := ports[i].CallCollective("tally", all, Simple("x", 1.0)); err != nil {
					t.Errorf("caller %d tally: %v", i, err)
				}
			}
			wg.Add(3)
			go tally(0, func() error { return nil })
			<-link.waiting
			go tally(1, func() error {
				_, err := ports[1].CallCollective("pulse", pair, Simple("n", 0))
				return err
			})
			go tally(2, func() error {
				for _, call := range []func() (*Result, error){
					func() (*Result, error) { return ports[2].CallIndependent(0, "poke", Simple("n", 1)) },
					func() (*Result, error) { return ports[2].CallCollective("pulse", pair, Simple("n", 0)) },
					func() (*Result, error) { return ports[2].CallIndependent(0, "poke", Simple("n", 2)) },
				} {
					if _, err := call(); err != nil {
						return err
					}
				}
				return nil
			})
			wg.Wait()
			for i, p := range ports {
				if err := p.Close(); err != nil {
					t.Fatalf("caller %d close: %v", i, err)
				}
			}
			if err := <-served; err != nil {
				t.Fatalf("serve: %v", err)
			}
			if want := []int{0, 1, 2}; !slices.Equal(ran, want) {
				t.Fatalf("pulse (0) and pokes ran in the order %v, want %v", ran, want)
			}
		})
	}
}

// TestPullSkipsHeldCalls: a call held back from a participant was sent
// before the invocation being collected, so the pulls of that
// invocation's deferred argument must not take it for pulled data.
// Collecting absorb, the endpoint holds caller 1's fire back; absorb's
// handler then pulls from caller 1, and fire runs after it.
func TestPullSkipsHeldCalls(t *testing.T) {
	iface := fieldIface(t)
	f := worldFabric(t, 2, 1)
	link := &gatherSignal{Link: f.callees[0], waiting: make(chan struct{})}
	ep := NewEndpoint(iface, link, 0, 1, 2)
	one, err := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(1)})
	if err != nil {
		t.Fatal(err)
	}
	two, err := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.RegisterArgLayout("fire", "field", one); err != nil {
		t.Fatal(err)
	}
	var ran []string
	ep.Handle("fire", func(*Incoming, *Outgoing) error { ran = append(ran, "fire"); return nil })
	ep.Handle("absorb", func(in *Incoming, out *Outgoing) error {
		ran = append(ran, "absorb")
		local, err := in.Pull("field", one)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, v := range local {
			sum += v
		}
		out.Return = sum
		return nil
	})
	served := make(chan error, 1)
	go func() { served <- ep.Serve() }()
	ports := []*CallerPort{NewCallerPort(iface, f.callers[0], 0, 1, Eager), NewCallerPort(iface, f.callers[1], 1, 1, Eager)}
	if err := ports[1].SetCalleeLayout("fire", "field", one); err != nil {
		t.Fatal(err)
	}
	both := Participation{Ranks: []int{0, 1}}
	absorb := func(i int) (*Result, error) {
		return ports[i].CallCollective("absorb", both, ParallelRef("field", two, []float64{1, 2}), Simple("blocks", 1))
	}
	first := make(chan error, 1)
	go func() {
		_, err := absorb(0)
		first <- err
	}()
	<-link.waiting
	if _, err := ports[1].CallCollective("fire", Participation{Ranks: []int{1}}, Parallel("field", one, make([]float64, 4))); err != nil {
		t.Fatal(err)
	}
	if res, err := absorb(1); err != nil || res.Return != 6.0 {
		t.Fatalf("caller 1 absorb: %v, %v; want 6", res, err)
	}
	if err := <-first; err != nil {
		t.Fatalf("caller 0 absorb: %v", err)
	}
	for i, p := range ports {
		if err := p.Close(); err != nil {
			t.Fatalf("caller %d close: %v", i, err)
		}
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if want := []string{"absorb", "fire"}; !slices.Equal(ran, want) {
		t.Fatalf("ran %v, want %v", ran, want)
	}
}

package prmi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

const testIDL = `
package t;

interface Calc {
    independent double square(in double x);
    independent oneway void poke(in int n);
    collective double tally(in double x);
    collective oneway void pulse(in int n);
    collective void absorb(in parallel array<double> field, in int step);
    collective void scale(inout parallel array<double> field, in double factor);
    collective void emit(out parallel array<double> field);
    collective double reduceField(in parallel array<double> field);
}
`

func calcInterface(t *testing.T) *sidl.Interface {
	t.Helper()
	pkg, err := sidl.Parse(testIDL)
	if err != nil {
		t.Fatal(err)
	}
	iface, ok := pkg.Interface("Calc")
	if !ok {
		t.Fatal("no Calc")
	}
	return iface
}

// fixture stands up M caller ranks and N callee ranks in one world with a
// shared link tag, separate cohort communicators, and runs the supplied
// bodies. Callee bodies configure the endpoint before Serve runs; Serve
// errors are collected.
type fixture struct {
	M, N    int
	iface   *sidl.Interface
	mode    DeliveryMode
	confEp  func(ep *Endpoint)
	confCal func(p *CallerPort)
}

func (f fixture) run(t *testing.T, caller func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int)) []error {
	t.Helper()
	world := comm.NewWorld(f.M + f.N)
	all := world.Comms()
	callerRanks := make([]int, f.M)
	for i := range callerRanks {
		callerRanks[i] = i
	}
	calleeRanks := make([]int, f.N)
	for j := range calleeRanks {
		calleeRanks[j] = f.M + j
	}
	callerCohort := world.Group(callerRanks)
	calleeCohort := world.Group(calleeRanks)
	_ = calleeCohort

	serveErrs := make([]error, f.N)
	var wg sync.WaitGroup
	for j := 0; j < f.N; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ep := NewEndpoint(f.iface, NewCommLink(all[f.M+j], 0, 0), j, f.N, f.M)
			if f.confEp != nil {
				f.confEp(ep)
			}
			serveErrs[j] = ep.Serve()
		}(j)
	}
	for i := 0; i < f.M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(f.iface, NewCommLink(all[i], f.M, 0), i, f.N, f.mode)
			if f.confCal != nil {
				f.confCal(p)
			}
			caller(t, p, callerCohort[i], i)
			if err := p.Close(); err != nil {
				t.Errorf("caller %d close: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	// A callee whose Serve failed leaves its callers' last messages queued;
	// killing the ranks releases them to the pool.
	for r := 0; r < f.M+f.N; r++ {
		world.Kill(r)
	}
	return serveErrs
}

func noServeErrors(t *testing.T, errs []error) {
	t.Helper()
	for j, err := range errs {
		if err != nil {
			t.Errorf("callee %d serve: %v", j, err)
		}
	}
}

func TestIndependentCall(t *testing.T) {
	iface := calcInterface(t)
	f := fixture{M: 2, N: 2, iface: iface, confEp: func(ep *Endpoint) {
		ep.Handle("square", func(in *Incoming, out *Outgoing) error {
			x := in.Simple["x"].(float64)
			out.Return = x * x
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, _ *comm.Comm, rank int) {
		target := (rank + 1) % 2
		res, err := p.CallIndependent(target, "square", Simple("x", float64(rank+3)))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		want := float64((rank + 3) * (rank + 3))
		if res.Return != want {
			t.Errorf("caller %d: square = %v, want %v", rank, res.Return, want)
		}
	})
	noServeErrors(t, errs)
}

func TestIndependentOneWay(t *testing.T) {
	iface := calcInterface(t)
	var pokes atomic.Int64
	f := fixture{M: 1, N: 1, iface: iface, confEp: func(ep *Endpoint) {
		ep.Handle("poke", func(in *Incoming, out *Outgoing) error {
			pokes.Add(in.Simple["n"].(int64))
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, _ *comm.Comm, rank int) {
		for k := 0; k < 5; k++ {
			res, err := p.CallIndependent(0, "poke", Simple("n", 2))
			if err != nil || res != nil {
				t.Errorf("oneway: res=%v err=%v", res, err)
			}
		}
	})
	noServeErrors(t, errs)
	if pokes.Load() != 10 {
		t.Errorf("pokes = %d", pokes.Load())
	}
}

func TestCollectiveEqualCohorts(t *testing.T) {
	iface := calcInterface(t)
	var served atomic.Int64
	f := fixture{M: 3, N: 3, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
			served.Add(1)
			out.Return = in.Simple["x"].(float64) * 10
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		res, err := p.CallCollective("tally", FullParticipation(cohort), Simple("x", 7.0))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		if res.Return != 70.0 {
			t.Errorf("caller %d: tally = %v", rank, res.Return)
		}
	})
	noServeErrors(t, errs)
	if served.Load() != 3 {
		t.Errorf("handler ran %d times, want once per callee rank", served.Load())
	}
}

func TestGhostInvocationsMLessN(t *testing.T) {
	// 2 callers, 5 callees: every callee rank must still receive the
	// logical invocation (ghost invocations), and both callers a return.
	iface := calcInterface(t)
	var served atomic.Int64
	f := fixture{M: 2, N: 5, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
			served.Add(1)
			out.Return = 1.0
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		res, err := p.CallCollective("tally", FullParticipation(cohort), Simple("x", 1.0))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		if res.Return != 1.0 {
			t.Errorf("caller %d got %v", rank, res.Return)
		}
	})
	noServeErrors(t, errs)
	if served.Load() != 5 {
		t.Errorf("handler ran %d times, want 5 (ghost invocations)", served.Load())
	}
}

func TestGhostReturnsMGreaterN(t *testing.T) {
	// 5 callers, 2 callees: every caller must receive a return (ghost
	// returns).
	iface := calcInterface(t)
	var served atomic.Int64
	f := fixture{M: 5, N: 2, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
			served.Add(1)
			out.Return = float64(in.CalleeRank)
			return nil
		})
	}}
	gotReturn := make([]bool, 5)
	var mu sync.Mutex
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		res, err := p.CallCollective("tally", FullParticipation(cohort), Simple("x", 1.0))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		// Caller at position k hears from callee k mod N.
		if want := float64(rank % 2); res.Return != want {
			t.Errorf("caller %d: return from callee %v, want %v", rank, res.Return, want)
		}
		mu.Lock()
		gotReturn[rank] = true
		mu.Unlock()
	})
	noServeErrors(t, errs)
	for i, ok := range gotReturn {
		if !ok {
			t.Errorf("caller %d never got a return", i)
		}
	}
	if served.Load() != 2 {
		t.Errorf("handler ran %d times", served.Load())
	}
}

func TestCollectiveOneWay(t *testing.T) {
	iface := calcInterface(t)
	var pulses atomic.Int64
	done := make(chan struct{})
	f := fixture{M: 2, N: 3, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.Handle("pulse", func(in *Incoming, out *Outgoing) error {
			if pulses.Add(1) == 3 {
				close(done)
			}
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		res, err := p.CallCollective("pulse", FullParticipation(cohort), Simple("n", 1))
		if err != nil || res != nil {
			t.Errorf("oneway collective: res=%v err=%v", res, err)
		}
		// One-way returns immediately; wait for the handlers before
		// closing so the count is deterministic.
		<-done
	})
	noServeErrors(t, errs)
	if pulses.Load() != 3 {
		t.Errorf("pulses = %d", pulses.Load())
	}
}

// parallelFixtureCall exercises a parallel `in` argument: the caller
// cohort holds a 1-D block-distributed array, the callee cohort registers
// a cyclic layout, and every callee handler verifies its assembled
// fragment holds the right global values.
func TestParallelInRedistribution(t *testing.T) {
	iface := calcInterface(t)
	const n = 24
	const M, N = 2, 3
	callerTpl, err := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(M)})
	if err != nil {
		t.Fatal(err)
	}
	calleeTpl, err := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.CyclicAxis(N)})
	if err != nil {
		t.Fatal(err)
	}
	var bad atomic.Int64
	f := fixture{M: M, N: N, iface: iface, mode: BarrierDelayed,
		confEp: func(ep *Endpoint) {
			if err := ep.RegisterArgLayout("absorb", "field", calleeTpl); err != nil {
				t.Error(err)
			}
			ep.Handle("absorb", func(in *Incoming, out *Outgoing) error {
				local := in.Parallel["field"]
				if len(local) != calleeTpl.LocalCount(in.CalleeRank) {
					bad.Add(1)
					return fmt.Errorf("fragment len %d", len(local))
				}
				for li, v := range local {
					// Cyclic layout: local index li on rank j holds global
					// index j + li*N, whose value is 100+g.
					g := in.CalleeRank + li*N
					if v != float64(100+g) {
						bad.Add(1)
						return fmt.Errorf("rank %d local %d: got %v want %v", in.CalleeRank, li, v, 100+g)
					}
				}
				if in.Simple["step"].(int64) != 9 {
					bad.Add(1)
					return fmt.Errorf("step = %v", in.Simple["step"])
				}
				return nil
			})
		},
		confCal: func(p *CallerPort) {
			if err := p.SetCalleeLayout("absorb", "field", calleeTpl); err != nil {
				t.Error(err)
			}
		},
	}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		local := make([]float64, callerTpl.LocalCount(rank))
		for li := range local {
			g := rank*(n/M) + li // block layout
			local[li] = float64(100 + g)
		}
		_, err := p.CallCollective("absorb", FullParticipation(cohort),
			Parallel("field", callerTpl, local), Simple("step", 9))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
		}
	})
	noServeErrors(t, errs)
	if bad.Load() != 0 {
		t.Errorf("%d callee checks failed", bad.Load())
	}
}

func TestParallelInOutRoundTrip(t *testing.T) {
	iface := calcInterface(t)
	const n = 20
	const M, N = 4, 2
	callerTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.CyclicAxis(M)})
	calleeTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(N)})
	f := fixture{M: M, N: N, iface: iface, mode: BarrierDelayed,
		confEp: func(ep *Endpoint) {
			ep.RegisterArgLayout("scale", "field", calleeTpl)
			ep.Handle("scale", func(in *Incoming, out *Outgoing) error {
				factor := in.Simple["factor"].(float64)
				buf := out.Parallel["field"] // pre-installed inout buffer
				for i := range buf {
					buf[i] *= factor
				}
				return nil
			})
		},
		confCal: func(p *CallerPort) { p.SetCalleeLayout("scale", "field", calleeTpl) },
	}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		local := make([]float64, callerTpl.LocalCount(rank))
		for li := range local {
			g := rank + li*M // cyclic layout
			local[li] = float64(g + 1)
		}
		_, err := p.CallCollective("scale", FullParticipation(cohort),
			Parallel("field", callerTpl, local), Simple("factor", 3.0))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		for li, v := range local {
			g := rank + li*M
			if want := float64(g+1) * 3; v != want {
				t.Errorf("caller %d local %d (global %d): got %v want %v", rank, li, g, v, want)
			}
		}
	})
	noServeErrors(t, errs)
}

func TestParallelOut(t *testing.T) {
	iface := calcInterface(t)
	const n = 18
	const M, N = 3, 3
	callerTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(M)})
	calleeTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockCyclicAxis(N, 2)})
	f := fixture{M: M, N: N, iface: iface, mode: BarrierDelayed,
		confEp: func(ep *Endpoint) {
			ep.RegisterArgLayout("emit", "field", calleeTpl)
			ep.Handle("emit", func(in *Incoming, out *Outgoing) error {
				buf := out.Parallel["field"]
				for li := range buf {
					// Invert the block-cyclic local layout to the global
					// index: local block lb of size 2 is global block
					// lb*N + rank.
					lb, off := li/2, li%2
					g := (lb*N+in.CalleeRank)*2 + off
					buf[li] = float64(1000 + g)
				}
				return nil
			})
		},
		confCal: func(p *CallerPort) { p.SetCalleeLayout("emit", "field", calleeTpl) },
	}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		local := make([]float64, callerTpl.LocalCount(rank))
		_, err := p.CallCollective("emit", FullParticipation(cohort),
			Parallel("field", callerTpl, local))
		if err != nil {
			t.Errorf("caller %d: %v", rank, err)
			return
		}
		for li, v := range local {
			g := rank*(n/M) + li
			if want := float64(1000 + g); v != want {
				t.Errorf("caller %d global %d: got %v want %v", rank, g, v, want)
			}
		}
	})
	noServeErrors(t, errs)
}

func TestSubsetParticipation(t *testing.T) {
	// 4-rank caller cohort, but only ranks 1 and 3 participate; the
	// parallel argument is decomposed over the two participants.
	iface := calcInterface(t)
	const n = 10
	calleeTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(2)})
	partTpl, _ := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(2)})
	var sum atomic.Int64
	world := comm.NewWorld(4 + 2)
	all := world.Comms()
	partComm := world.Group([]int{1, 3})
	var wg sync.WaitGroup
	serveErrs := make([]error, 2)
	for j := 0; j < 2; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ep := NewEndpoint(iface, NewCommLink(all[4+j], 0, 0), j, 2, 4)
			ep.RegisterArgLayout("reduceField", "field", calleeTpl)
			ep.Handle("reduceField", func(in *Incoming, out *Outgoing) error {
				s := 0.0
				for _, v := range in.Parallel["field"] {
					s += v
				}
				sum.Add(int64(s))
				out.Return = 0.0
				return nil
			})
			serveErrs[j] = ep.Serve()
		}(j)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(iface, NewCommLink(all[i], 4, 0), i, 2, BarrierDelayed)
			p.SetCalleeLayout("reduceField", "field", calleeTpl)
			if i == 1 || i == 3 {
				pos := i / 2 // 1→0, 3→1 within the sorted participant set
				local := make([]float64, partTpl.LocalCount(pos))
				for li := range local {
					local[li] = 1
				}
				var grp *comm.Comm
				if i == 1 {
					grp = partComm[0]
				} else {
					grp = partComm[1]
				}
				part := Participation{Ranks: []int{1, 3}, Group: grp}
				if _, err := p.CallCollective("reduceField", part, Parallel("field", partTpl, local)); err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
			}
			p.Close()
		}(i)
	}
	wg.Wait()
	noServeErrors(t, serveErrs)
	if sum.Load() != n {
		t.Errorf("callee total = %d, want %d", sum.Load(), n)
	}
}

func TestSimpleArgConsistencyCheck(t *testing.T) {
	iface := calcInterface(t)
	f := fixture{M: 2, N: 1, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.CheckSimpleArgs = true
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
			out.Return = 0.0
			return nil
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		// Violate the convention: different x per caller.
		_, err := p.CallCollective("tally", FullParticipation(cohort), Simple("x", float64(rank)))
		if err == nil {
			t.Errorf("caller %d: inconsistent simple arguments not reported", rank)
		}
	})
	if errs[0] == nil {
		t.Error("callee did not detect inconsistent simple arguments")
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	iface := calcInterface(t)
	f := fixture{M: 2, N: 2, iface: iface, mode: BarrierDelayed, confEp: func(ep *Endpoint) {
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
			return errors.New("boom")
		})
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		_, err := p.CallCollective("tally", FullParticipation(cohort), Simple("x", 1.0))
		if err == nil {
			t.Errorf("caller %d: handler error not propagated", rank)
		}
	})
	noServeErrors(t, errs)
}

func TestMissingHandler(t *testing.T) {
	iface := calcInterface(t)
	f := fixture{M: 1, N: 1, iface: iface}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		if _, err := p.CallIndependent(0, "square", Simple("x", 1.0)); err == nil {
			t.Error("missing handler not reported")
		}
	})
	noServeErrors(t, errs)
}

func TestCallValidation(t *testing.T) {
	iface := calcInterface(t)
	f := fixture{M: 1, N: 1, iface: iface, confEp: func(ep *Endpoint) {
		ep.Handle("square", func(in *Incoming, out *Outgoing) error { out.Return = 0.0; return nil })
	}}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		if _, err := p.CallIndependent(0, "nosuch"); err == nil {
			t.Error("unknown method accepted")
		}
		if _, err := p.CallIndependent(0, "tally", Simple("x", 1.0)); err == nil {
			t.Error("collective method via CallIndependent accepted")
		}
		if _, err := p.CallCollective("square", FullParticipation(cohort), Simple("x", 1.0)); err == nil {
			t.Error("independent method via CallCollective accepted")
		}
		if _, err := p.CallIndependent(5, "square", Simple("x", 1.0)); err == nil {
			t.Error("out-of-range target accepted")
		}
		if _, err := p.CallIndependent(0, "square"); err == nil {
			t.Error("missing argument accepted")
		}
		if _, err := p.CallIndependent(0, "square", Simple("y", 1.0)); err == nil {
			t.Error("unknown argument accepted")
		}
		if _, err := p.CallIndependent(0, "square", Simple("x", 1.0), Simple("x", 2.0)); err == nil {
			t.Error("duplicate argument accepted")
		}
		// Valid call to confirm the endpoint survived validation failures.
		if _, err := p.CallIndependent(0, "square", Simple("x", 2.0)); err != nil {
			t.Errorf("valid call failed: %v", err)
		}
	})
	noServeErrors(t, errs)
}

func TestParallelArgValidation(t *testing.T) {
	iface := calcInterface(t)
	wrongProcs, _ := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.BlockAxis(3)})
	calleeTpl, _ := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.BlockAxis(1)})
	f := fixture{M: 2, N: 1, iface: iface, mode: BarrierDelayed,
		confEp: func(ep *Endpoint) {
			ep.RegisterArgLayout("absorb", "field", calleeTpl)
			ep.Handle("absorb", func(in *Incoming, out *Outgoing) error { return nil })
		},
		confCal: func(p *CallerPort) { p.SetCalleeLayout("absorb", "field", calleeTpl) },
	}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		part := FullParticipation(cohort)
		// Template over 3 ranks but 2 participants.
		if _, err := p.CallCollective("absorb", part,
			Parallel("field", wrongProcs, make([]float64, 3)), Simple("step", 1)); err == nil {
			t.Error("wrong-width template accepted")
		}
		// Missing parallel argument.
		if _, err := p.CallCollective("absorb", part, Simple("step", 1)); err == nil {
			t.Error("missing parallel argument accepted")
		}
		// Simple value passed for parallel parameter.
		if _, err := p.CallCollective("absorb", part, Simple("field", 1.0), Simple("step", 1)); err == nil {
			t.Error("simple value for parallel parameter accepted")
		}
		// Good call so the endpoint terminates cleanly.
		good, _ := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.BlockAxis(2)})
		local := make([]float64, good.LocalCount(rank))
		if _, err := p.CallCollective("absorb", part,
			Parallel("field", good, local), Simple("step", 1)); err != nil {
			t.Errorf("valid call failed: %v", err)
		}
	})
	noServeErrors(t, errs)
}

func TestLayoutNegotiation(t *testing.T) {
	iface := calcInterface(t)
	calleeTpl, _ := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.CyclicAxis(2)})
	ep := NewEndpoint(iface, nil, 0, 2, 1)
	if err := ep.RegisterArgLayout("absorb", "field", calleeTpl); err != nil {
		t.Fatal(err)
	}
	msg := ep.EncodeLayouts()
	p := NewCallerPort(iface, nil, 0, 2, Eager)
	if err := p.ApplyLayouts(msg); err != nil {
		t.Fatal(err)
	}
	if got := p.layouts["absorb\x00field"]; got == nil || got.Key() != calleeTpl.Key() {
		t.Error("negotiated layout does not match")
	}
	// Registration validation.
	if err := ep.RegisterArgLayout("nosuch", "field", calleeTpl); err == nil {
		t.Error("unknown method accepted")
	}
	if err := ep.RegisterArgLayout("absorb", "step", calleeTpl); err == nil {
		t.Error("non-parallel param accepted")
	}
	wrong, _ := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.CyclicAxis(3)})
	if err := ep.RegisterArgLayout("absorb", "field", wrong); err == nil {
		t.Error("wrong-width layout accepted")
	}
}

// TestFigure5 reproduces the paper's synchronization scenario in all three
// configurations:
//
//	proc 0 makes collective call A with participants {0,1,2};
//	procs 1,2 first make collective call B with participants {1,2},
//	then join call A.
//
// Eager + faithful matching: the callee commits to call A (proc 0's header
// arrives first), holds B back, and waits forever for A from procs 1 and 2
// — who are blocked awaiting B's reply. Deadlock, surfaced via
// StallTimeout.
//
// Eager + strict matching: the callee detects the inconsistent delivery.
//
// BarrierDelayed: call A's delivery waits until procs 1,2 reach it, which
// happens after B completes; both calls succeed.
func TestFigure5(t *testing.T) {
	iface := calcInterface(t)

	run := func(mode DeliveryMode, strict bool) (serveErr error, callErrs []error) {
		world := comm.NewWorld(3 + 1)
		all := world.Comms()
		full := world.Group([]int{0, 1, 2})
		sub := world.Group([]int{1, 2})
		started := make(chan struct{})
		callErrs = make([]error, 3)
		var serveWg, callWg sync.WaitGroup
		serveWg.Add(1)
		go func() {
			defer serveWg.Done()
			ep := NewEndpoint(iface, NewCommLink(all[3], 0, 0), 0, 1, 3)
			ep.StallTimeout = 300 * time.Millisecond
			ep.StrictMatching = strict
			ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
				out.Return = 0.0
				return nil
			})
			serveErr = ep.Serve()
		}()
		for i := 0; i < 3; i++ {
			callWg.Add(1)
			go func(i int) {
				defer callWg.Done()
				p := NewCallerPort(iface, NewCommLink(all[i], 3, 0), i, 1, mode)
				partA := Participation{Ranks: []int{0, 1, 2}, Group: full[i]}
				if i == 0 {
					// Proc 0 goes straight to call A.
					close(started)
					_, err := p.CallCollective("tally", partA, Simple("x", 1.0))
					callErrs[i] = err
				} else {
					// Procs 1,2 wait until proc 0 is at call A, then make
					// call B first.
					<-started
					time.Sleep(50 * time.Millisecond) // let A's header arrive first
					partB := Participation{Ranks: []int{1, 2}, Group: sub[i-1]}
					_, errB := p.CallCollective("tally", partB, Simple("x", 2.0))
					if errB != nil {
						callErrs[i] = errB
						p.Close()
						return
					}
					_, errA := p.CallCollective("tally", partA, Simple("x", 1.0))
					callErrs[i] = errA
				}
				p.Close()
			}(i)
		}
		// The callee always terminates (stall timeout or clean shutdown).
		serveWg.Wait()
		// Deadlocked callers never return — that is the phenomenon under
		// test — so join them with a deadline and abandon the rest.
		callersDone := make(chan struct{})
		go func() {
			callWg.Wait()
			close(callersDone)
		}()
		select {
		case <-callersDone:
		case <-time.After(2 * time.Second):
		}
		// Release what the stalled endpoint left queued.
		for r := 0; r < 4; r++ {
			world.Kill(r)
		}
		return serveErr, callErrs
	}

	t.Run("EagerFaithfulDeadlocks", func(t *testing.T) {
		serveErr, _ := run(Eager, false)
		if !errors.Is(serveErr, ErrStalled) {
			t.Errorf("serve error = %v, want ErrStalled (the Figure 5 deadlock)", serveErr)
		}
	})
	t.Run("EagerStrictDetects", func(t *testing.T) {
		serveErr, _ := run(Eager, true)
		var ov *OrderViolationError
		if !errors.As(serveErr, &ov) {
			t.Errorf("serve error = %v, want OrderViolationError", serveErr)
		}
	})
	t.Run("BarrierDelayedCompletes", func(t *testing.T) {
		serveErr, callErrs := run(BarrierDelayed, false)
		if serveErr != nil {
			t.Errorf("serve error = %v, want clean completion", serveErr)
		}
		for i, err := range callErrs {
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
		}
	})
}

// TestConnLinkMesh is the genuinely distributed deployment: 2 callers and
// 2 callees, each rank in a world of its own, and every caller/callee
// pair of worlds joined by its own in-memory pipe (comm.ConnectPeer binds
// the one peer rank behind each). A CommLink over the shared group routes
// each message to its pair's connection.
func TestConnLinkMesh(t *testing.T) {
	iface := calcInterface(t)
	const M, N = 2, 2
	all := []int{0, 1, 2, 3} // callers, then callees
	worlds := make([]*comm.World, M+N)
	groups := make([][]*comm.Comm, M+N)
	for r := range worlds {
		worlds[r] = comm.NewWorld(M + N)
	}
	var peers []*comm.RemotePeer
	for i := 0; i < M; i++ {
		for j := M; j < M+N; j++ {
			a, b := transport.Pipe()
			peers = append(peers, worlds[i].ConnectPeer(a, []int{j}), worlds[j].ConnectPeer(b, []int{i}))
		}
	}
	for r := range worlds {
		groups[r] = worlds[r].SharedGroup(1, all)
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()
	callerCohort := comm.NewWorld(M).Comms()
	var wg sync.WaitGroup
	serveErrs := make([]error, N)
	for j := 0; j < N; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			ep := NewEndpoint(iface, NewCommLink(groups[M+j][M+j], 0, 0), j, N, M)
			ep.Handle("tally", func(in *Incoming, out *Outgoing) error {
				out.Return = in.Simple["x"].(float64) + 1
				return nil
			})
			serveErrs[j] = ep.Serve()
		}(j)
	}
	for i := 0; i < M; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(iface, NewCommLink(groups[i][i], M, 0), i, N, BarrierDelayed)
			res, err := p.CallCollective("tally", FullParticipation(callerCohort[i]), Simple("x", 41.0))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			} else if res.Return != 42.0 {
				t.Errorf("caller %d: got %v", i, res.Return)
			}
			p.Close()
		}(i)
	}
	wg.Wait()
	noServeErrors(t, serveErrs)
}

func TestParallelIntArrayRejected(t *testing.T) {
	pkg, err := sidl.Parse(`package t; interface I { collective void f(in parallel array<int> x); }`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	f := fixture{M: 1, N: 1, iface: iface}
	errs := f.run(t, func(t *testing.T, p *CallerPort, cohort *comm.Comm, rank int) {
		tpl, _ := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(1)})
		_, err := p.CallCollective("f", FullParticipation(cohort), Parallel("x", tpl, make([]float64, 4)))
		if err == nil || !strings.Contains(err.Error(), "array<double>") {
			t.Errorf("parallel int array not rejected clearly: %v", err)
		}
	})
	noServeErrors(t, errs)
}

package scirun

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/prmi"
)

const idl = `
package demo;

interface Solver {
    collective double norm(in parallel array<double> field);
    independent double square(in double x);
    collective oneway void tick(in int step);
}
`

// build wires a 3-rank driver to a 2-rank solver over the Solver
// interface with a registered parallel-arg layout.
func build(t *testing.T, driverBody func(svc *Services) error, solverBody func(svc *Services) error) *Framework {
	t.Helper()
	f := New(5)
	if err := f.DefineInterfaces(idl); err != nil {
		t.Fatal(err)
	}
	if err := f.AddComponent("driver", []int{0, 1, 2}, driverBody); err != nil {
		t.Fatal(err)
	}
	if err := f.AddComponent("solver", []int{3, 4}, solverBody); err != nil {
		t.Fatal(err)
	}
	if err := f.AddUsesPort("driver", "calc", "Solver"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddProvidesPort("solver", "svc", "Solver"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("driver", "calc", "solver", "svc"); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEndToEndParallelArgument(t *testing.T) {
	const n = 12
	calleeTpl, err := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	callerTpl, err := dad.NewTemplate([]int{n}, []dad.AxisDist{dad.CyclicAxis(3)})
	if err != nil {
		t.Fatal(err)
	}
	var served atomic.Int64
	f := build(t,
		func(svc *Services) error {
			port, err := svc.GetPort("calc")
			if err != nil {
				return err
			}
			local := make([]float64, callerTpl.LocalCount(svc.Rank()))
			for li := range local {
				g := svc.Rank() + li*3 // cyclic layout
				local[li] = float64(g)
			}
			res, err := port.CallCollective("norm", prmi.FullParticipation(svc.Cohort()),
				prmi.Parallel("field", callerTpl, local))
			if err != nil {
				return err
			}
			// Sum over callee ranks of their partial sums = 0+1+...+11 = 66.
			if res.Return != 66.0 {
				t.Errorf("driver rank %d: norm = %v", svc.Rank(), res.Return)
			}
			return nil
		},
		func(svc *Services) error {
			ep, err := svc.ProvidesPort("svc")
			if err != nil {
				return err
			}
			ep.Handle("norm", func(in *prmi.Incoming, out *prmi.Outgoing) error {
				served.Add(1)
				sum := 0.0
				for _, v := range in.Parallel["field"] {
					sum += v
				}
				// Cohort-wide reduction: callee ranks cooperate out-of-band.
				total := svc.Cohort().AllreduceFloat64(sum, 0)
				out.Return = total
				return nil
			})
			return ep.Serve()
		},
	)
	if err := f.SetArgLayout("solver", "svc", "norm", "field", calleeTpl); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if served.Load() != 2 {
		t.Errorf("handler ran %d times", served.Load())
	}
}

func TestIndependentAndOneWay(t *testing.T) {
	var ticks atomic.Int64
	done := make(chan struct{})
	f := build(t,
		func(svc *Services) error {
			port, err := svc.GetPort("calc")
			if err != nil {
				return err
			}
			if svc.Rank() == 0 {
				res, err := port.CallIndependent(1, "square", prmi.Simple("x", 6.0))
				if err != nil {
					return err
				}
				if res.Return != 36.0 {
					t.Errorf("square = %v", res.Return)
				}
			}
			// Order the independent call strictly before the collective
			// one: without this, rank 0's pending square reply and the
			// others' eager tick headers recreate exactly the Figure 5
			// race this framework's strict matching detects.
			svc.Cohort().Barrier()
			if _, err := port.CallCollective("tick", prmi.FullParticipation(svc.Cohort()),
				prmi.Simple("step", 1)); err != nil {
				return err
			}
			<-done // keep ports open until the one-way handlers ran
			return nil
		},
		func(svc *Services) error {
			ep, err := svc.ProvidesPort("svc")
			if err != nil {
				return err
			}
			ep.Handle("square", func(in *prmi.Incoming, out *prmi.Outgoing) error {
				x := in.Simple["x"].(float64)
				out.Return = x * x
				return nil
			})
			ep.Handle("tick", func(in *prmi.Incoming, out *prmi.Outgoing) error {
				if ticks.Add(1) == 2 {
					close(done)
				}
				return nil
			})
			return ep.Serve()
		},
	)
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks.Load() != 2 {
		t.Errorf("ticks = %d", ticks.Load())
	}
}

func TestSubsetting(t *testing.T) {
	// Run-time subsetting: only driver ranks 0 and 2 participate.
	var saw atomic.Int64
	f := build(t,
		func(svc *Services) error {
			sub := svc.Cohort().Sub([]int{0, 2})
			// Every rank resolves the port (the framework closes it at
			// exit, releasing the endpoint), but only the subset calls.
			port, err := svc.GetPort("calc")
			if err != nil {
				return err
			}
			if svc.Rank() == 1 {
				return nil
			}
			tpl, err := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(2)})
			if err != nil {
				return err
			}
			pos := svc.Rank() / 2
			local := make([]float64, tpl.LocalCount(pos))
			for i := range local {
				local[i] = 1
			}
			part := prmi.Participation{Ranks: []int{0, 2}, Group: sub}
			_, err = port.CallCollective("norm", part, prmi.Parallel("field", tpl, local))
			return err
		},
		func(svc *Services) error {
			ep, err := svc.ProvidesPort("svc")
			if err != nil {
				return err
			}
			ep.Handle("norm", func(in *prmi.Incoming, out *prmi.Outgoing) error {
				saw.Store(int64(len(in.Participants)))
				out.Return = 0.0
				return nil
			})
			return ep.Serve()
		},
	)
	calleeTpl, _ := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(2)})
	if err := f.SetArgLayout("solver", "svc", "norm", "field", calleeTpl); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if saw.Load() != 2 {
		t.Errorf("callee saw %d participants, want 2", saw.Load())
	}
}

func TestDeclarationValidation(t *testing.T) {
	f := New(3)
	if err := f.DefineInterfaces("package p; interface I { void m(); }"); err != nil {
		t.Fatal(err)
	}
	if err := f.DefineInterfaces("package q; interface I { void x(); }"); err == nil {
		t.Error("duplicate interface accepted")
	}
	if err := f.DefineInterfaces("not sidl at all"); err == nil {
		t.Error("bad SIDL accepted")
	}
	if err := f.AddComponent("a", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.AddComponent("a", []int{1}, nil); err == nil {
		t.Error("duplicate component accepted")
	}
	if err := f.AddComponent("b", []int{0}, nil); err == nil {
		t.Error("overlapping ranks accepted")
	}
	if err := f.AddComponent("b", []int{9}, nil); err == nil {
		t.Error("out-of-world rank accepted")
	}
	if err := f.AddComponent("b", []int{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.AddProvidesPort("a", "p", "Nope"); err == nil {
		t.Error("unknown interface accepted")
	}
	if err := f.AddProvidesPort("ghost", "p", "I"); err == nil {
		t.Error("unknown component accepted")
	}
	if err := f.AddProvidesPort("a", "p", "I"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddProvidesPort("a", "p", "I"); err == nil {
		t.Error("duplicate provides accepted")
	}
	if err := f.AddUsesPort("b", "u", "I"); err != nil {
		t.Fatal(err)
	}
	if err := f.AddUsesPort("b", "u", "I"); err == nil {
		t.Error("duplicate uses accepted")
	}
	if err := f.Connect("b", "u", "a", "p"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("b", "u", "a", "p"); err == nil {
		t.Error("double connect accepted")
	}
	// Interface mismatch.
	f.DefineInterfaces("package r; interface J { void m(); }")
	f.AddComponent("c", []int{2}, nil)
	f.AddUsesPort("c", "u", "J")
	if err := f.Connect("c", "u", "a", "p"); err == nil {
		t.Error("interface mismatch accepted")
	}
	// Layout validation.
	tpl, _ := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(1)})
	if err := f.SetArgLayout("ghost", "p", "m", "x", tpl); err == nil {
		t.Error("layout on unknown component accepted")
	}
	if err := f.SetArgLayout("a", "nope", "m", "x", tpl); err == nil {
		t.Error("layout on unknown port accepted")
	}
	if err := f.SetArgLayout("a", "p", "nope", "x", tpl); err == nil {
		t.Error("layout on unknown method accepted")
	}
	wide, _ := dad.NewTemplate([]int{4}, []dad.AxisDist{dad.BlockAxis(4)})
	if err := f.SetArgLayout("a", "p", "m", "x", wide); err == nil {
		t.Error("wrong-width layout accepted")
	}
}

func TestUnconnectedPorts(t *testing.T) {
	f := New(2)
	f.DefineInterfaces("package p; interface I { void m(); }")
	gotErr := make(chan error, 2)
	f.AddComponent("a", []int{0}, func(svc *Services) error {
		_, err := svc.GetPort("nowhere")
		gotErr <- err
		_, err = svc.ProvidesPort("unserved")
		gotErr <- err
		return nil
	})
	f.AddComponent("b", []int{1}, func(svc *Services) error { return nil })
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-gotErr; err == nil {
		t.Error("unconnected uses port resolved")
	}
	if err := <-gotErr; err == nil {
		t.Error("undeclared provides port resolved")
	}
}

// TestCallToExitedProviderFails runs a provider whose body returns an
// error before it serves: each caller's call must fail with
// *core.ErrRankDown at once instead of waiting for a reply that never
// comes, and Run must report the provider's error.
func TestCallToExitedProviderFails(t *testing.T) {
	boom := errors.New("provider failed before serving")
	type outcome struct {
		err  error
		took time.Duration
	}
	called := make(chan outcome, 3)
	f := build(t,
		func(svc *Services) error {
			port, err := svc.GetPort("calc")
			if err != nil {
				return err
			}
			start := time.Now()
			_, err = port.CallIndependent(svc.Rank()%2, "square", prmi.Simple("x", 2.0))
			called <- outcome{err, time.Since(start)}
			return nil
		},
		func(svc *Services) error { return boom },
	)
	ran := make(chan error, 1)
	go func() { ran <- f.Run() }()
	select {
	case err := <-ran:
		if !errors.Is(err, boom) {
			t.Errorf("Run = %v, want the provider's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return: a call to an exited provider is still waiting")
	}
	for i := 0; i < 3; i++ {
		got := <-called
		var down *core.ErrRankDown
		if !errors.As(got.err, &down) {
			t.Fatalf("call error = %v, want *core.ErrRankDown", got.err)
		}
		if got.took > 100*time.Millisecond {
			t.Errorf("call took %v to fail, want at most 100ms", got.took)
		}
	}
}

package dca

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/core"
)

// TestEndToEndCollectiveCall couples a 3-rank driver to a 2-rank solver:
// the driver scatters chunks alltoallv-style, the solver transforms and
// replies.
func TestEndToEndCollectiveCall(t *testing.T) {
	f := New(5)
	var served atomic.Int64
	if err := f.AddComponent("solver", []int{3, 4}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			err := svc.Provide("calc", "scale", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				served.Add(1)
				factor := simple[0].(float64)
				reply := make([][]float64, len(chunks))
				for k, ch := range chunks {
					out := make([]float64, len(ch))
					for i, v := range ch {
						out[i] = v * factor
					}
					reply[k] = out
				}
				return []any{"ok"}, reply, nil
			})
			if err != nil {
				return err
			}
			return svc.Serve()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddComponent("driver", []int{0, 1, 2}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			// Every driver rank sends chunk [rank, rank] to each solver
			// rank and expects it doubled back.
			send := [][]float64{
				{float64(svc.Rank()), float64(svc.Rank())},
				{float64(svc.Rank() + 10)},
			}
			ret, recv, err := svc.Call("calc", "scale", svc.Cohort(), []any{2.0}, send)
			if err != nil {
				return err
			}
			if ret[0] != "ok" {
				return fmt.Errorf("ret = %v", ret)
			}
			if len(recv) != 2 {
				return fmt.Errorf("recv chunks = %d", len(recv))
			}
			if recv[0][0] != float64(svc.Rank())*2 || recv[1][0] != float64(svc.Rank()+10)*2 {
				return fmt.Errorf("rank %d: recv = %v", svc.Rank(), recv)
			}
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("driver", "calc", "solver", "calc"); err != nil {
		t.Fatal(err)
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	// Every solver rank serviced the one collective call.
	if served.Load() != 2 {
		t.Errorf("handler ran %d times, want 2", served.Load())
	}
}

func TestSubsetParticipation(t *testing.T) {
	// Only driver ranks 0 and 2 participate; the provider must see a
	// 2-participant call.
	f := New(4)
	var gotParts atomic.Int64
	f.AddComponent("p", []int{3}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("p", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				gotParts.Store(int64(len(chunks)))
				return nil, nil, nil
			})
			return svc.Serve()
		})
	})
	f.AddComponent("u", []int{0, 1, 2}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			if svc.Rank() == 1 {
				return nil // sits out
			}
			sub := svc.Cohort().Sub([]int{0, 2})
			if svc.Rank() == 1 {
				return nil
			}
			_, _, err := svc.Call("p", "m", sub, nil, nil)
			return err
		})
	})
	f.Connect("u", "p", "p", "p")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if gotParts.Load() != 2 {
		t.Errorf("provider saw %d participants, want 2", gotParts.Load())
	}
}

func TestOneWayDoesNotBlock(t *testing.T) {
	f := New(2)
	fired := make(chan struct{}, 4)
	f.AddComponent("p", []int{1}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("log", "note", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				fired <- struct{}{}
				return nil, nil, nil
			})
			return svc.Serve()
		})
	})
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			for i := 0; i < 4; i++ {
				ret, recv, err := svc.Call("log", "note", svc.Cohort(), []any{i}, nil)
				if err != nil || ret != nil || recv != nil {
					return fmt.Errorf("oneway returned %v %v %v", ret, recv, err)
				}
			}
			return nil
		})
	})
	f.Connect("u", "log", "p", "log")
	if err := f.DeclareOneWay("p", "log", "note"); err != nil {
		t.Fatal(err)
	}
	if err := f.DeclareOneWay("ghost", "log", "note"); err == nil {
		t.Error("DeclareOneWay on unknown component accepted")
	}
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Errorf("handler fired %d times", len(fired))
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	f := New(2)
	f.AddComponent("p", []int{1}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("x", "boom", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				return nil, nil, fmt.Errorf("kaboom")
			})
			return svc.Serve()
		})
	})
	callErr := make(chan error, 1)
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			_, _, err := svc.Call("x", "boom", svc.Cohort(), nil, nil)
			callErr <- err
			return nil
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-callErr; err == nil {
		t.Error("handler error not propagated")
	}
}

func TestMissingHandlerAndUnconnectedPort(t *testing.T) {
	f := New(2)
	f.AddComponent("p", []int{1}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error { return svc.Serve() })
	})
	errs := make(chan error, 2)
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			_, _, err := svc.Call("x", "nosuch", svc.Cohort(), nil, nil)
			errs <- err
			_, _, err = svc.Call("unwired", "m", svc.Cohort(), nil, nil)
			errs <- err
			return nil
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil {
		t.Error("missing handler not reported")
	}
	if err := <-errs; err == nil {
		t.Error("unconnected port not reported")
	}
}

func TestFrameworkValidation(t *testing.T) {
	f := New(3)
	if err := f.AddComponent("a", []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.AddComponent("a", []int{1}, nil); err == nil {
		t.Error("duplicate component accepted")
	}
	if err := f.AddComponent("b", []int{0}, nil); err == nil {
		t.Error("overlapping ranks accepted")
	}
	if err := f.AddComponent("c", nil, nil); err == nil {
		t.Error("empty ranks accepted")
	}
	if err := f.AddComponent("d", []int{7}, nil); err == nil {
		t.Error("out-of-world rank accepted")
	}
	if err := f.Connect("a", "x", "nobody", "y"); err == nil {
		t.Error("unknown provider accepted")
	}
	if err := f.Connect("nobody", "x", "a", "y"); err == nil {
		t.Error("unknown user accepted")
	}
	if err := f.Connect("a", "x", "a", "y"); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("a", "x", "a", "y"); err == nil {
		t.Error("double connect accepted")
	}
}

func TestChunkCountValidation(t *testing.T) {
	f := New(3)
	f.AddComponent("p", []int{1, 2}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("x", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				return nil, [][]float64{{1}}, nil // wrong reply arity on purpose? participants=1 → len 1 OK
			})
			return svc.Serve()
		})
	})
	callErr := make(chan error, 2)
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			// Wrong sendChunks length (provider has 2 ranks).
			_, _, err := svc.Call("x", "m", svc.Cohort(), nil, [][]float64{{1}})
			callErr <- err
			// nil participation communicator.
			_, _, err = svc.Call("x", "m", nil, nil, nil)
			callErr <- err
			// A valid call so Serve sees at least one message path.
			_, _, err = svc.Call("x", "m", svc.Cohort(), nil, nil)
			return err
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if err := <-callErr; err == nil {
		t.Error("bad chunk count accepted")
	}
	if err := <-callErr; err == nil {
		t.Error("nil participation accepted")
	}
}

func TestMultipleUsersOneProvider(t *testing.T) {
	// Two independent user components invoke the same provider; the
	// provider drains shutdowns from both.
	f := New(3)
	var calls atomic.Int64
	f.AddComponent("p", []int{2}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("x", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				calls.Add(1)
				return nil, nil, nil
			})
			return svc.Serve()
		})
	})
	mkUser := func() func(rank int) GoComponent {
		return func(rank int) GoComponent {
			return GoFunc(func(svc *Services) error {
				for i := 0; i < 3; i++ {
					if _, _, err := svc.Call("x", "m", svc.Cohort(), nil, nil); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	f.AddComponent("u1", []int{0}, mkUser())
	f.AddComponent("u2", []int{1}, mkUser())
	f.Connect("u1", "x", "p", "x")
	f.Connect("u2", "x", "p", "x")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 6 {
		t.Errorf("calls = %d", calls.Load())
	}
}

// TestCallToExitedProviderFails runs a provider whose body returns an
// error before it serves: the caller's call must fail with
// *core.ErrRankDown at once instead of waiting for a reply that never
// comes, and Run must report the provider's error.
func TestCallToExitedProviderFails(t *testing.T) {
	f := New(2)
	boom := errors.New("provider failed before serving")
	f.AddComponent("p", []int{1}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error { return boom })
	})
	type outcome struct {
		err  error
		took time.Duration
	}
	called := make(chan outcome, 1)
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			start := time.Now()
			_, _, err := svc.Call("x", "m", svc.Cohort(), nil, nil)
			called <- outcome{err, time.Since(start)}
			return nil
		})
	})
	if err := f.Connect("u", "x", "p", "x"); err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- f.Run() }()
	select {
	case err := <-ran:
		if !errors.Is(err, boom) {
			t.Errorf("Run = %v, want the provider's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return: the call to an exited provider is still waiting")
	}
	got := <-called
	var down *core.ErrRankDown
	if !errors.As(got.err, &down) || down.Rank != 0 {
		t.Fatalf("call error = %v, want *core.ErrRankDown for provider rank 0", got.err)
	}
	if got.took > 100*time.Millisecond {
		t.Errorf("call took %v to fail, want at most 100ms", got.took)
	}
}

// TestHandlerErrorLeavesNoStaleReply fails the first call on provider rank
// 0 only: the caller must still take rank 1's reply to that call, so the
// second call's chunks are the second call's.
func TestHandlerErrorLeavesNoStaleReply(t *testing.T) {
	f := New(3)
	f.AddComponent("p", []int{1, 2}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			svc.Provide("x", "m", func(r int, simple []any, chunks [][]float64) ([]any, [][]float64, error) {
				if r == 0 && simple[0] == 1 {
					return nil, nil, fmt.Errorf("rank 0 refuses call 1")
				}
				return nil, [][]float64{{float64(simple[0].(int))}}, nil
			})
			return svc.Serve()
		})
	})
	f.AddComponent("u", []int{0}, func(rank int) GoComponent {
		return GoFunc(func(svc *Services) error {
			if _, _, err := svc.Call("x", "m", svc.Cohort(), []any{1}, nil); err == nil {
				return fmt.Errorf("call 1: handler error not reported")
			}
			_, recv, err := svc.Call("x", "m", svc.Cohort(), []any{2}, nil)
			if err != nil {
				return err
			}
			if recv[0][0] != 2 || recv[1][0] != 2 {
				return fmt.Errorf("call 2 got chunks %v, want [[2] [2]]", recv)
			}
			return nil
		})
	})
	f.Connect("u", "x", "p", "x")
	if err := f.Run(); err != nil {
		t.Fatal(err)
	}
}

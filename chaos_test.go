package mxn

// Chaos soak tests: the survivability layer end to end. A rank is crashed
// in the middle of coupled redistribution + PRMI traffic and the survivors
// must either re-plan and complete (FailRedistribute) or fail with the
// typed rank-down error (FailStrict) — never hang, never panic, and never
// execute a non-idempotent method twice (PRMI over a session over a
// flapping link). Run via `make chaos` (and under -race in CI); every
// fault decision is seed-driven and replayable.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

// chaosFingerprint is the per-element payload: recognizable and unique per
// global index so delivery errors are attributable.
func chaosFingerprint(g int) float64 { return float64(g) + 0.5 }

// TestChaosRedistRankCrash stands up an 8-rank world (4 sources, 4
// destinations, block -> cyclic so every destination depends on every
// source), starts heartbeats, and crashes one source mid-transfer. Under
// FailRedistribute the survivors re-plan and complete with the lost
// elements recorded in the validity bitmap; under FailStrict every
// destination gets *core.ErrRankDown. Either way BarrierTimeout afterwards
// names exactly the crashed rank.
func TestChaosRedistRankCrash(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy redist.FailPolicy
	}{
		{"redistribute", redist.FailRedistribute},
		{"strict", redist.FailStrict},
	} {
		t.Run(tc.name, func(t *testing.T) { runChaosRedist(t, tc.policy) })
	}
}

func runChaosRedist(t *testing.T, policy redist.FailPolicy) {
	const (
		nSrc, nDst = 4, 4
		nElems     = 24
		victim     = 1 // source rank 1 == group rank 1
	)
	src, err := dad.NewTemplate([]int{nElems}, []dad.AxisDist{dad.BlockAxis(nSrc)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{nElems}, []dad.AxisDist{dad.CyclicAxis(nDst)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewCache()
	if _, err := cache.Get(src, dst); err != nil {
		t.Fatal(err)
	}
	desc, err := dad.NewDescriptor("chaos", dad.Float64, dad.ReadWrite, dst)
	if err != nil {
		t.Fatal(err)
	}

	srcLocals := make([][]float64, nSrc)
	for r := 0; r < nSrc; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
	}
	for g := 0; g < nElems; g++ {
		owner := src.OwnerOf([]int{g})
		srcLocals[owner][src.LocalOffset(owner, []int{g})] = chaosFingerprint(g)
	}

	n := nSrc + nDst
	w := comm.NewWorld(n)
	cs := w.Comms()
	mem := core.NewMembership(n)
	cfg := core.HeartbeatConfig{Interval: 10 * time.Millisecond, MissThreshold: 8}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}

	dstLocals := make([][]float64, nDst)
	outs := make([]*redist.Outcome, nDst)
	errs := make([]error, nDst)
	missings := make([][]int, n)
	berrs := make([]error, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			hb, hbErr := core.StartHeartbeats(c, mem, cfg, peers)
			if hbErr != nil {
				panic(hbErr)
			}
			defer hb.Stop()
			if r == victim {
				// Crash after the cohort is mid-transfer: the victim's
				// data never leaves, and its heartbeats go silent.
				time.Sleep(3 * cfg.Interval)
				w.Kill(victim)
				return
			}
			fo := TransferOpts{
				Membership:   mem,
				Policy:       policy,
				PollInterval: 2 * time.Millisecond,
				Cache:        cache,
				Desc:         desc,
			}
			lay := redist.Layout{SrcBase: 0, DstBase: nSrc}
			var sl, dl []float64
			if r < nSrc {
				sl = srcLocals[r]
			} else {
				dl = make([]float64, dst.LocalCount(r-nSrc))
			}
			out, xerr := runOnce(c, s, lay, sl, dl, 0, fo)
			if dl != nil {
				mu.Lock()
				dstLocals[r-nSrc] = dl
				outs[r-nSrc] = out
				errs[r-nSrc] = xerr
				mu.Unlock()
			} else if xerr != nil {
				t.Errorf("source rank %d: %v", r, xerr)
			}
			// Satellite contract: the post-transfer barrier names exactly
			// the ranks that never arrived.
			missing, berr := c.BarrierTimeout(300 * time.Millisecond)
			mu.Lock()
			missings[r] = missing
			berrs[r] = berr
			mu.Unlock()
		}(r, cs[r])
	}
	wg.Wait()

	if mem.IsAlive(victim) {
		t.Fatal("heartbeats never detected the crashed rank")
	}
	if mem.Epoch() < 2 {
		t.Fatalf("membership epoch = %d after a death", mem.Epoch())
	}
	for r := 0; r < n; r++ {
		if r == victim {
			continue
		}
		var bte *comm.BarrierTimeoutError
		if !errors.As(berrs[r], &bte) {
			t.Fatalf("rank %d: barrier error = %v, want *comm.BarrierTimeoutError", r, berrs[r])
		}
		if len(missings[r]) != 1 || missings[r][0] != victim {
			t.Fatalf("rank %d: barrier missing = %v, want [%d]", r, missings[r], victim)
		}
	}

	switch policy {
	case redist.FailRedistribute:
		for j := 0; j < nDst; j++ {
			if errs[j] != nil {
				t.Fatalf("dst rank %d: re-plan should complete, got %v", j, errs[j])
			}
			out := outs[j]
			if len(out.Down) != 1 || out.Down[0] != victim {
				t.Errorf("dst rank %d: Down = %v, want [%d]", j, out.Down, victim)
			}
			if out.Replanned == nil {
				t.Errorf("dst rank %d: no restricted schedule reported", j)
			}
			if v := desc.Validity(j); v == nil {
				t.Errorf("dst rank %d: descriptor carries no validity bitmap", j)
			}
		}
		// Per element: victim-sourced entries invalid, everything else
		// delivered intact and marked valid.
		for g := 0; g < nElems; g++ {
			j := dst.OwnerOf([]int{g})
			off := dst.LocalOffset(j, []int{g})
			if src.OwnerOf([]int{g}) == victim {
				if outs[j].Validity.Valid(off) {
					t.Errorf("global %d: lost element marked valid on dst %d", g, j)
				}
			} else {
				if !outs[j].Validity.Valid(off) {
					t.Errorf("global %d: delivered element marked invalid on dst %d", g, j)
				}
				if dstLocals[j][off] != chaosFingerprint(g) {
					t.Errorf("global %d on dst %d: got %v, want %v", g, j, dstLocals[j][off], chaosFingerprint(g))
				}
			}
		}
		// The stale schedule entry must be gone from the cache.
		if cache.Invalidate(src, dst) {
			t.Error("schedule cache still held the pre-crash entry after re-plan")
		}
	case redist.FailStrict:
		for j := 0; j < nDst; j++ {
			var rd *core.ErrRankDown
			if !errors.As(errs[j], &rd) || rd.Rank != victim {
				t.Errorf("dst rank %d: err = %v, want *core.ErrRankDown for rank %d", j, errs[j], victim)
			}
		}
	}
}

func chaosIface(t *testing.T) *sidl.Interface {
	t.Helper()
	pkg, err := sidl.Parse(`package chaos; interface Counter {
		independent double bump(in double x);
	}`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("Counter")
	return iface
}

// chaosPRMI wires a 1×1 caller/callee pair, each in a world of its own,
// with the worlds bound to the two ends of a link by ConnectPeer, and a
// non-idempotent counter handler; count is callee-side ground truth. Both
// bindings close, and both ranks die, at cleanup.
func chaosPRMI(t *testing.T, caller, callee transport.Conn) (*prmi.CallerPort, *atomic.Int64) {
	t.Helper()
	iface := chaosIface(t)
	all := []int{0, 1}
	wa, wb := comm.NewWorld(2), comm.NewWorld(2)
	pa, pb := wa.ConnectPeer(caller, all[1:]), wb.ConnectPeer(callee, all[:1])
	t.Cleanup(func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
		wa.Kill(0)
		wb.Kill(1)
	})
	var count atomic.Int64
	ep := prmi.NewEndpoint(iface, prmi.NewCommLink(wb.SharedGroup(1, all)[1], 0, 0), 0, 1, 1)
	if err := ep.Handle("bump", func(in *prmi.Incoming, out *prmi.Outgoing) error {
		out.Return = float64(count.Add(1))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	go ep.Serve()
	port := prmi.NewCallerPort(iface, prmi.NewCommLink(wa.SharedGroup(1, all)[0], 1, 0), 0, 1, prmi.Eager)
	return port, &count
}

// chaosInprocSeq keeps flappingSession's listener addresses distinct.
var chaosInprocSeq atomic.Int64

// flappingSession establishes one session over an in-process listener
// whose accepted physical conns each die after flapAfter messages, and
// returns its dialing and accepted ends: every frame still crosses exactly
// once, by redial and replay.
func flappingSession(t *testing.T, seed int64, flapAfter int) (cli, srv transport.Conn) {
	t.Helper()
	cfg := session.Config{MaxAttempts: 20, MaxElapsed: 10 * time.Second, BaseBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, HandshakeTimeout: time.Second}
	addr := fmt.Sprintf("chaos-prmi-%d", chaosInprocSeq.Add(1))
	raw, err := transport.Listen("inproc", addr)
	if err != nil {
		t.Fatal(err)
	}
	lst := session.WrapListener(faultconn.WrapListener(raw, faultconn.Scenario{Seed: seed, FlapAfter: flapAfter}), cfg)
	t.Cleanup(func() { lst.Close() })
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := lst.Accept()
		accepted <- c
	}()
	cli, err = session.NewConn(func(ctx context.Context) (transport.Conn, error) {
		return transport.DialContext(ctx, "inproc", addr)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv = <-accepted; srv == nil {
		t.Fatal("listener closed before the session was accepted")
	}
	return cli, srv
}

// TestChaosPRMIExactlyOnce drives a non-idempotent counter over a session
// whose physical conns keep dying: every logical call is sent once and
// executes exactly once on the callee however many frames the flaps take
// with them — the session replays those.
func TestChaosPRMIExactlyOnce(t *testing.T) {
	reconnects := obs.Default().Counter("session.reconnects")
	before := reconnects.Value()
	cli, srv := flappingSession(t, 99, 6)
	port, count := chaosPRMI(t, cli, srv)
	const calls = 15
	for i := 1; i <= calls; i++ {
		res, err := port.CallIndependent(0, "bump", prmi.Simple("x", float64(i)))
		if err != nil {
			t.Fatalf("logical call %d: %v", i, err)
		}
		if got := res.Return.(float64); got != float64(i) {
			t.Fatalf("call %d returned count %v: a call ran twice or was lost", i, got)
		}
	}
	if got := count.Load(); got != calls {
		t.Fatalf("callee executed %d times for %d logical calls", got, calls)
	}
	if reconnects.Value() == before {
		t.Fatal("no session reconnect; the flapping link never failed under the calls")
	}
}

// TestChaosPRMICalleeCrash crashes the link endpoint after a fixed message
// count: the calls that fit before the crash succeed (and are counted
// exactly once); the first call into the silence is sent once and fails
// with the typed timeout after one timeout — bounded, not hung.
func TestChaosPRMICalleeCrash(t *testing.T) {
	// Each clean call is two messages (invocation + reply); CrashAfter 6
	// admits exactly three calls, then silence.
	fc, peer := faultconn.Pipe(faultconn.Scenario{Seed: 7, CrashAfter: 6})
	port, count := chaosPRMI(t, fc, peer)
	port.SetTimeout(40 * time.Millisecond)
	for i := 1; i <= 3; i++ {
		if _, err := port.CallIndependent(0, "bump", prmi.Simple("x", float64(i))); err != nil {
			t.Fatalf("pre-crash call %d: %v", i, err)
		}
	}
	start := time.Now()
	_, err := port.CallIndependent(0, "bump", prmi.Simple("x", 4.0))
	if !errors.Is(err, prmi.ErrTimeout) {
		t.Fatalf("post-crash call: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("post-crash call took %v; the timeout should bound it", elapsed)
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("callee executed %d calls, want exactly the 3 pre-crash ones", got)
	}
}

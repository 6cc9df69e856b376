package mxn

// Chaos soak tests for elastic malleability: a cohort is grown and then
// shrunk online while fenced transfers and exactly-once PRMI calls are in
// flight, and a rank is crashed in the middle of a migration window. The
// survivors must either complete on the new geometry, or abort/re-plan
// with typed errors — never hang, never mix epochs, never lose the
// exactly-once guarantee. Run via `make chaos` (and under -race in CI).

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

func blockTpl(t *testing.T, elems, width int) *dad.Template {
	t.Helper()
	tp, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.BlockAxis(width)})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func fillChaos(tp *dad.Template) [][]float64 {
	locals := make([][]float64, tp.NumProcs())
	for r := range locals {
		locals[r] = make([]float64, tp.LocalCount(r))
	}
	n := tp.Dims()[0]
	for g := 0; g < n; g++ {
		owner := tp.OwnerOf([]int{g})
		locals[owner][tp.LocalOffset(owner, []int{g})] = chaosFingerprint(g)
	}
	return locals
}

func verifyChaos(t *testing.T, tp *dad.Template, locals [][]float64, what string) {
	t.Helper()
	n := tp.Dims()[0]
	for g := 0; g < n; g++ {
		owner := tp.OwnerOf([]int{g})
		off := tp.LocalOffset(owner, []int{g})
		if locals[owner] == nil {
			t.Fatalf("%s: rank %d has no buffer", what, owner)
		}
		if locals[owner][off] != chaosFingerprint(g) {
			t.Fatalf("%s: global %d on rank %d = %v, want %v",
				what, g, owner, locals[owner][off], chaosFingerprint(g))
		}
	}
}

// migrateOnce builds a rank's migration handle for rz on the cached
// old→new plan (Layout{}: cohort rank == group rank) and runs it once.
func migrateOnce(c *Comm, rz *Resize, oldT, newT *Template, src, dst []float64, tag int,
	opts TransferOpts) (*FenceOutcome, error) {
	s, err := opts.Cache.Get(oldT, newT)
	if err != nil {
		return nil, err
	}
	opts.Resize = rz
	return runOnce(c, s, Layout{}, src, dst, tag, opts)
}

// TestChaosResizeOnlineGrowShrink grows a 3-rank cohort to 5 and then
// shrinks it to 2, committing both resizes, while (a) an exactly-once
// PRMI counter keeps calling over a flapping session for the whole
// lifecycle, (b) an ordinary fenced exchange runs concurrently with each
// migration on the same ranks and epoch, and (c) the ranks leaving in the
// shrink detach their PRMI callers before departing. Data must land
// bit-identically at every stage.
func TestChaosResizeOnlineGrowShrink(t *testing.T) {
	const (
		oldW, midW, finalW = 3, 5, 2
		elems              = 40
	)
	oldT := blockTpl(t, elems, oldW)
	midT, err := dad.Reblock(oldT, midW)
	if err != nil {
		t.Fatal(err)
	}
	finalT, err := dad.Reblock(midT, finalW)
	if err != nil {
		t.Fatal(err)
	}
	cycOld, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.CyclicAxis(oldW)})
	if err != nil {
		t.Fatal(err)
	}
	cycMid, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.CyclicAxis(midW)})
	if err != nil {
		t.Fatal(err)
	}

	// Exactly-once PRMI traffic over a session whose physical conns keep
	// dying, in flight for the whole resize lifecycle: the non-idempotent
	// counter must run once per call no matter how the scheduler
	// interleaves it with the migrations. The resizes can finish before
	// the link has flapped, so the calls go on until the session has
	// reconnected — or until maxPRMICalls, should it never — and only then
	// stop when asked.
	const maxPRMICalls = 500
	reconnects := obs.Default().Counter("session.reconnects")
	reconnectsBefore := reconnects.Value()
	cli, srv := flappingSession(t, 41, 8)
	port, count := chaosPRMI(t, cli, srv)
	stopPRMI := make(chan struct{})
	prmiCalls := make(chan int, 1)
	go func() {
		calls := 0
		for {
			if reconnects.Value() != reconnectsBefore || calls >= maxPRMICalls {
				select {
				case <-stopPRMI:
					prmiCalls <- calls
					return
				default:
				}
			}
			res, err := port.CallIndependent(0, "bump", prmi.Simple("x", 1.0))
			if err != nil {
				t.Errorf("prmi call %d during resize: %v", calls+1, err)
				prmiCalls <- calls
				return
			}
			calls++
			if got := res.Return.(float64); got != float64(calls) {
				t.Errorf("prmi call %d returned count %v: a call ran twice or was lost across the resize", calls, got)
			}
		}
	}()

	mem := core.NewMembership(oldW)
	cache := schedule.NewCache()
	cur := make([][]float64, midW) // each rank's live payload, migrated in place
	copy(cur, fillChaos(oldT))

	var (
		rz1, rz2         *core.Resize
		prep1, commit1   = make(chan struct{}), make(chan struct{})
		prep2, commit2   = make(chan struct{}), make(chan struct{})
		round1WG, mig1WG sync.WaitGroup
		round2WG, mig2WG sync.WaitGroup
		serveDone        = make(chan error, 1)
		mu               sync.Mutex
	)
	round1WG.Add(oldW)
	mig1WG.Add(midW)
	round2WG.Add(midW)
	mig2WG.Add(midW)

	newFO := func() TransferOpts {
		return TransferOpts{Membership: mem, Policy: redist.FailStrict, PollInterval: time.Millisecond, Cache: cache}
	}
	iface := chaosIface(t)
	const prmiTag = 5000

	comm.Run(midW, func(c *comm.Comm) {
		r := c.Rank()

		// Round 1: steady-state fenced traffic on the old cohort.
		if r < oldW {
			scratch := make([]float64, cycOld.LocalCount(r))
			s, err := cache.Get(oldT, cycOld)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			} else if _, err := runOnce(c, s, Layout{}, cur[r], scratch, 10, newFO()); err != nil {
				t.Errorf("rank %d round 1: %v", r, err)
			}
			round1WG.Done()
		}

		// Prepare the grow (coordinator), then migrate — with a second
		// fenced exchange deliberately in flight on the same ranks and
		// entry epoch, on its own tag.
		if r == 0 {
			round1WG.Wait()
			var err error
			rz1, err = mem.ProposeResize(midW)
			if err != nil {
				t.Fatalf("propose grow: %v", err)
			}
			close(prep1)
		}
		<-prep1

		var inflight sync.WaitGroup
		if r < oldW {
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				scratch := make([]float64, cycOld.LocalCount(r))
				s, err := cache.Get(oldT, cycOld)
				if err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
				if _, err := runOnce(c, s, Layout{}, cur[r], scratch, 500, newFO()); err != nil {
					t.Errorf("rank %d concurrent exchange during grow: %v", r, err)
				}
			}()
		}
		var sl []float64
		if r < oldW {
			sl = cur[r]
		}
		dl := make([]float64, midT.LocalCount(r))
		out, err := migrateOnce(c, rz1, oldT, midT, sl, dl, 100, newFO())
		if err != nil {
			t.Errorf("rank %d grow migration: %v", r, err)
		} else if out.Epoch != rz1.PrepareEpoch() {
			t.Errorf("rank %d entered grow at epoch %d, want %d", r, out.Epoch, rz1.PrepareEpoch())
		}
		inflight.Wait()
		mu.Lock()
		cur[r] = dl
		mu.Unlock()
		mig1WG.Done()

		if r == 0 {
			mig1WG.Wait()
			if rz1.Disturbed() {
				t.Error("clean grow window reported disturbed")
			}
			if _, err := redist.CommitReconfigure(rz1, cache, oldT); err != nil {
				t.Errorf("commit grow: %v", err)
			}
			close(commit1)
		}
		<-commit1

		// Round 2 on the grown cohort: all five ranks exchange.
		{
			scratch := make([]float64, cycMid.LocalCount(r))
			s, err := cache.Get(midT, cycMid)
			if err != nil {
				t.Errorf("rank %d: %v", r, err)
			} else if _, err := runOnce(c, s, Layout{}, cur[r], scratch, 20, newFO()); err != nil {
				t.Errorf("rank %d round 2: %v", r, err)
			}
			round2WG.Done()
		}

		// Prepare the shrink — only once every rank has drained round 2,
		// so the prepare fence cannot split a round's entry epochs. The
		// departing ranks (2..4) run PRMI caller ports against an endpoint
		// on rank 0 and detach before leaving; Serve must terminate once
		// all of them have departed.
		if r == 0 {
			round2WG.Wait()
			var err error
			rz2, err = mem.ProposeResize(finalW)
			if err != nil {
				t.Fatalf("propose shrink: %v", err)
			}
			go func() {
				ep := prmi.NewEndpoint(iface, prmi.NewCommLink(c, finalW, prmiTag), 0, 1, midW-finalW)
				ep.Handle("bump", func(in *prmi.Incoming, out *prmi.Outgoing) error {
					out.Return = in.Simple["x"].(float64)
					return nil
				})
				serveDone <- ep.Serve()
			}()
			close(prep2)
		}
		<-prep2

		if r >= finalW {
			p := prmi.NewCallerPort(iface, prmi.NewCommLink(c, 0, prmiTag), r-finalW, 1, 0)
			for k := 0; k < 3; k++ {
				if _, err := p.CallIndependent(0, "bump", prmi.Simple("x", float64(r))); err != nil {
					t.Errorf("leaving rank %d prmi call: %v", r, err)
				}
			}
			if err := p.Depart(); err != nil {
				t.Errorf("leaving rank %d depart: %v", r, err)
			}
		}

		var dl2 []float64
		if r < finalW {
			dl2 = make([]float64, finalT.LocalCount(r))
		}
		out2, err := migrateOnce(c, rz2, midT, finalT, cur[r], dl2, 200, newFO())
		if err != nil {
			t.Errorf("rank %d shrink migration: %v", r, err)
		} else if out2.Epoch != rz2.PrepareEpoch() {
			t.Errorf("rank %d entered shrink at epoch %d, want %d", r, out2.Epoch, rz2.PrepareEpoch())
		}
		mu.Lock()
		cur[r] = dl2
		mu.Unlock()
		mig2WG.Done()

		if r == 0 {
			mig2WG.Wait()
			if _, err := redist.CommitReconfigure(rz2, cache, midT); err != nil {
				t.Errorf("commit shrink: %v", err)
			}
			close(commit2)
		}
		<-commit2
	})

	verifyChaos(t, finalT, cur, "post-shrink data")
	if mem.Width() != finalW {
		t.Fatalf("final width %d, want %d", mem.Width(), finalW)
	}
	if mem.Epoch() != 5 {
		t.Fatalf("final epoch %d, want 5 (two prepares + two commits)", mem.Epoch())
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("endpoint serve after departures: %v", err)
	}

	close(stopPRMI)
	calls := <-prmiCalls
	if calls == 0 {
		t.Fatal("no PRMI traffic was in flight during the resizes")
	}
	if got := count.Load(); got != int64(calls) {
		t.Fatalf("callee executed %d times for %d logical calls across the resizes", got, calls)
	}
	if reconnects.Value() == reconnectsBefore {
		t.Fatal("no session reconnect; the flapping link never failed under the calls")
	}
}

// TestChaosResizeKilledMidMigration crashes an old-cohort rank inside the
// resize window, with heartbeats doing the detection. Under FailStrict
// the migration aborts with the typed rank-down error and the rollback
// restores the old width; under FailRedistribute it completes on the
// survivors with the losses recorded, and the coordinator commits anyway.
// Either way the window reports Disturbed and nothing deadlocks.
func TestChaosResizeKilledMidMigration(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy redist.FailPolicy
	}{
		{"strict", redist.FailStrict},
		{"redistribute", redist.FailRedistribute},
	} {
		t.Run(tc.name, func(t *testing.T) { runChaosResizeKill(t, tc.policy) })
	}
}

func runChaosResizeKill(t *testing.T, policy redist.FailPolicy) {
	const (
		oldW, newW = 4, 6
		elems      = 24
		victim     = 1
	)
	oldT := blockTpl(t, elems, oldW)
	newT, err := dad.Reblock(oldT, newW)
	if err != nil {
		t.Fatal(err)
	}
	mem := core.NewMembership(oldW)
	rz, err := mem.ProposeResize(newW)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewCache()
	srcLocals := fillChaos(oldT)

	w := comm.NewWorld(newW)
	cs := w.Comms()
	cfg := core.HeartbeatConfig{Interval: 10 * time.Millisecond, MissThreshold: 8}
	peers := make([]int, newW)
	for i := range peers {
		peers[i] = i
	}

	dstLocals := make([][]float64, newW)
	outs := make([]*redist.Outcome, newW)
	errs := make([]error, newW)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(newW)
	for r := 0; r < newW; r++ {
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			hb, hbErr := core.StartHeartbeats(c, mem, cfg, peers)
			if hbErr != nil {
				panic(hbErr)
			}
			defer hb.Stop()
			if r == victim {
				// Crash inside the migration window: the victim's shard
				// never leaves, and its heartbeats go silent.
				time.Sleep(3 * cfg.Interval)
				w.Kill(victim)
				return
			}
			fo := TransferOpts{
				Membership:   mem,
				Policy:       policy,
				PollInterval: 2 * time.Millisecond,
				Cache:        cache,
			}
			var sl []float64
			if r < oldW {
				sl = srcLocals[r]
			}
			dl := make([]float64, newT.LocalCount(r))
			out, xerr := migrateOnce(c, rz, oldT, newT, sl, dl, 0, fo)
			mu.Lock()
			dstLocals[r] = dl
			outs[r] = out
			errs[r] = xerr
			mu.Unlock()
		}(r, cs[r])
	}
	wg.Wait()

	if mem.IsAlive(victim) {
		t.Fatal("heartbeats never detected the crashed rank")
	}
	if !rz.Disturbed() {
		t.Fatal("mid-window crash not reported by Disturbed")
	}

	switch policy {
	case redist.FailStrict:
		sawTyped := false
		for r := 0; r < newW; r++ {
			if r == victim {
				continue
			}
			var down *core.ErrRankDown
			if errors.As(errs[r], &down) {
				if down.Rank != victim {
					t.Errorf("rank %d: ErrRankDown.Rank = %d, want %d", r, down.Rank, victim)
				}
				sawTyped = true
			}
		}
		if !sawTyped {
			t.Fatal("no rank surfaced *core.ErrRankDown")
		}
		if _, err := redist.AbortReconfigure(rz, cache, newT); err != nil {
			t.Fatal(err)
		}
		if mem.Width() != oldW {
			t.Fatalf("aborted resize changed width to %d", mem.Width())
		}
	case redist.FailRedistribute:
		for r := 0; r < newW; r++ {
			if r == victim {
				continue
			}
			if errs[r] != nil {
				t.Fatalf("rank %d: re-plan should complete, got %v", r, errs[r])
			}
		}
		// Loss pattern: exactly the victim-owned shard is invalid on its
		// new owners; everything else landed bit-identically.
		for g := 0; g < elems; g++ {
			nr := newT.OwnerOf([]int{g})
			if nr == victim {
				continue
			}
			off := newT.LocalOffset(nr, []int{g})
			if oldT.OwnerOf([]int{g}) == victim {
				if outs[nr].Validity.Valid(off) {
					t.Errorf("global %d: lost element marked valid on rank %d", g, nr)
				}
				continue
			}
			if !outs[nr].Validity.Valid(off) {
				t.Errorf("global %d: delivered element marked invalid on rank %d", g, nr)
			}
			if dstLocals[nr][off] != chaosFingerprint(g) {
				t.Errorf("global %d on rank %d: got %v, want %v", g, nr, dstLocals[nr][off], chaosFingerprint(g))
			}
		}
		if _, err := redist.CommitReconfigure(rz, cache, oldT); err != nil {
			t.Fatal(err)
		}
		if mem.Width() != newW {
			t.Fatalf("committed width %d, want %d", mem.Width(), newW)
		}
	}
}

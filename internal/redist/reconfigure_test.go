package redist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// runReconfigure executes one migration over nGroup group ranks hosting
// both cohorts at Layout{} (cohort rank == group rank), with deadAfterPrepare
// marked down after the prepare fence (a death inside the resize window).
func runReconfigure(t *testing.T, mem *core.Membership, rz *core.Resize,
	oldT, newT *dad.Template, nGroup int, deadAfterPrepare []int,
	opts func(*TransferOpts)) ([][]float64, []*Outcome, []error) {
	t.Helper()
	dead := map[int]bool{}
	for _, g := range deadAfterPrepare {
		mem.MarkDown(g)
		dead[g] = true
	}
	srcLocals := fillByGlobal(oldT)
	dstLocals := make([][]float64, newT.NumProcs())
	outs := make([]*Outcome, nGroup)
	errs := make([]error, nGroup)
	var mu sync.Mutex
	comm.Run(nGroup, func(c *comm.Comm) {
		if dead[c.Rank()] {
			return
		}
		fo := TransferOpts{Membership: mem, Policy: FailStrict, PollInterval: time.Millisecond}
		if opts != nil {
			opts(&fo)
		}
		var sl, dl []float64
		if c.Rank() < oldT.NumProcs() {
			sl = srcLocals[c.Rank()]
		}
		if c.Rank() < newT.NumProcs() {
			dl = make([]float64, newT.LocalCount(c.Rank()))
		}
		fo.Resize = rz
		s, err := migrationPlan(c, Layout{}, fo, oldT, newT)
		var out *Outcome
		if err == nil {
			out, err = xfer(c, s, Layout{}, sl, dl, 0, fo)
		}
		mu.Lock()
		if dl != nil {
			dstLocals[c.Rank()] = dl
		}
		outs[c.Rank()] = out
		errs[c.Rank()] = err
		mu.Unlock()
	})
	return dstLocals, outs, errs
}

func TestReconfigureGrowBitIdentical(t *testing.T) {
	oldT := tpl(t, []int{24}, dad.BlockAxis(3))
	mem := core.NewMembership(3)
	rz, err := mem.ProposeResize(5)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 5)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewCache()
	got, outs, errs := runReconfigure(t, mem, rz, oldT, newT, 5, nil,
		func(fo *TransferOpts) { fo.Cache = cache })
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if outs[r].Epoch != rz.PrepareEpoch() {
			t.Errorf("rank %d entered at epoch %d, want prepare epoch %d", r, outs[r].Epoch, rz.PrepareEpoch())
		}
		if !outs[r].Validity.AllValid() {
			t.Errorf("rank %d: clean migration invalidated elements", r)
		}
	}
	// The migrated data is bit-identical to a fresh distribution.
	verify(t, newT, got)
	if rz.Disturbed() {
		t.Fatal("clean window reported disturbed")
	}
	dropped, err := CommitReconfigure(rz, cache, oldT)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("commit dropped %d cache entries, want 1 (the migration plan)", dropped)
	}
	if mem.Width() != 5 {
		t.Fatalf("committed width %d, want 5", mem.Width())
	}
}

func TestReconfigureShrinkBitIdentical(t *testing.T) {
	oldT := tpl(t, []int{24}, dad.BlockAxis(4))
	mem := core.NewMembership(4)
	rz, err := mem.ProposeResize(2)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, outs, errs := runReconfigure(t, mem, rz, oldT, newT, 4, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		if outs[r].Epoch != rz.PrepareEpoch() {
			t.Errorf("rank %d entered at epoch %d, want %d", r, outs[r].Epoch, rz.PrepareEpoch())
		}
	}
	verify(t, newT, got)
	if _, err := CommitReconfigure(rz, nil); err != nil {
		t.Fatal(err)
	}
	if mem.Width() != 2 || mem.Size() != 4 {
		t.Fatalf("after shrink commit: width %d size %d, want 2/4", mem.Width(), mem.Size())
	}
}

func TestReconfigureDeathMidWindow(t *testing.T) {
	// A rank dies after prepare: the live epoch moves past the prepare
	// fence, strict migrations touching the victim fail typed, the window
	// reports disturbed, and the rollback path restores the old width.
	oldT := tpl(t, []int{24}, dad.BlockAxis(3))
	mem := core.NewMembership(3)
	rz, err := mem.ProposeResize(4)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	_, _, errs := runReconfigure(t, mem, rz, oldT, newT, 4, []int{victim}, nil)
	sawTyped := false
	for _, err := range errs {
		var down *core.ErrRankDown
		if errors.As(err, &down) {
			if down.Rank != victim {
				t.Errorf("ErrRankDown.Rank = %d, want %d", down.Rank, victim)
			}
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Fatal("no rank surfaced *core.ErrRankDown for the mid-window death")
	}
	if !rz.Disturbed() {
		t.Fatal("mid-window death not reported by Disturbed")
	}
	cache := schedule.NewCache()
	if _, err := cache.Get(oldT, newT); err != nil {
		t.Fatal(err)
	}
	dropped, err := AbortReconfigure(rz, cache, newT)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("abort dropped %d cache entries, want 1", dropped)
	}
	if mem.Width() != 3 {
		t.Fatalf("abort changed width to %d", mem.Width())
	}
	// Re-proposing a cohort that would include the dead rank is rejected
	// (cohorts are rank prefixes and mark-down is permanent); a width
	// below the victim still works.
	var down *core.ErrRankDown
	if _, err := mem.ProposeResize(4); !errors.As(err, &down) || down.Rank != victim {
		t.Fatalf("re-propose over dead rank: err = %v, want *core.ErrRankDown", err)
	}
	if _, err := mem.ProposeResize(victim); err != nil {
		t.Fatalf("re-propose excluding dead rank: %v", err)
	}
}

func TestReconfigureRedistributeCompletesOnSurvivors(t *testing.T) {
	// Under FailRedistribute the migration completes on the survivors and
	// records the losses instead of aborting; the caller may still commit.
	oldT := tpl(t, []int{24}, dad.BlockAxis(3))
	mem := core.NewMembership(3)
	rz, err := mem.ProposeResize(4)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 4)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 2
	got, outs, errs := runReconfigure(t, mem, rz, oldT, newT, 4, []int{victim},
		func(fo *TransferOpts) { fo.Policy = FailRedistribute })
	for r, err := range errs {
		if r == victim {
			continue
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Elements whose old owner or new owner is the victim are lost or
	// undeliverable; everything else must land bit-identically.
	forEachIndex(newT.Dims(), func(idx []int) {
		nr := newT.OwnerOf(idx)
		if nr == victim {
			return
		}
		off := newT.LocalOffset(nr, idx)
		if oldT.OwnerOf(idx) == victim {
			if outs[nr].Validity.Valid(off) {
				t.Errorf("index %v: element from dead source marked valid", idx)
			}
			return
		}
		if !outs[nr].Validity.Valid(off) {
			t.Errorf("index %v: delivered element marked invalid", idx)
		}
		if got[nr][off] != fingerprint(idx) {
			t.Errorf("index %v: got %v, want %v", idx, got[nr][off], fingerprint(idx))
		}
	})
	if !rz.Disturbed() {
		t.Fatal("death not reported by Disturbed")
	}
}

func TestReconfigureValidation(t *testing.T) {
	oldT := tpl(t, []int{12}, dad.BlockAxis(2))
	newT := tpl(t, []int{12}, dad.BlockAxis(3))
	mem := core.NewMembership(2)
	rz, err := mem.ProposeResize(3)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(3)
	c := w.Comms()[0]
	fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond, Resize: rz}
	plan := func(a, b *dad.Template) *schedule.Schedule {
		s, err := schedule.Build(a, b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var rcErr *ReconfigureError
	// New rejects each malformed migration before any data moves.
	sent := mMsgsSent.Value()

	// A migration is fenced at the prepare epoch, so it needs a membership.
	noMem := fo
	noMem.Membership = nil
	if _, err := New[float64](c, plan(oldT, newT), Layout{}, 0, noMem); !errors.As(err, &rcErr) {
		t.Fatalf("no membership: err = %v, want *ReconfigureError", err)
	}
	// Template widths must match the resize handle.
	if _, err := New[float64](c, plan(newT, newT), Layout{}, 0, fo); !errors.As(err, &rcErr) {
		t.Fatalf("old width mismatch: err = %v", err)
	}
	if _, err := New[float64](c, plan(oldT, oldT), Layout{}, 0, fo); !errors.As(err, &rcErr) {
		t.Fatalf("new width mismatch: err = %v", err)
	}
	// The group must host both cohorts.
	small := comm.NewWorld(2).Comms()[0]
	if _, err := New[float64](small, plan(oldT, newT), Layout{}, 0, fo); !errors.As(err, &rcErr) {
		t.Fatalf("undersized group: err = %v", err)
	}
	if d := mMsgsSent.Value() - sent; d != 0 {
		t.Fatalf("rejected migrations sent %d messages", d)
	}

	// The migration planner rejects a missing handle, and checks the
	// widths before planning: a malformed pair leaves the cache untouched.
	noRz := fo
	noRz.Resize = nil
	if _, err := migrationPlan(c, Layout{}, noRz, oldT, newT); !errors.As(err, &rcErr) {
		t.Fatalf("nil handle: err = %v, want *ReconfigureError", err)
	}
	cached := fo
	cached.Cache = schedule.NewCache()
	if _, err := migrationPlan(c, Layout{}, cached, newT, newT); !errors.As(err, &rcErr) {
		t.Fatalf("planned old width mismatch: err = %v", err)
	}
	if _, err := migrationPlan(small, Layout{}, cached, oldT, newT); !errors.As(err, &rcErr) {
		t.Fatalf("planned undersized group: err = %v", err)
	}
	if n := cached.Cache.Builds(); n != 0 {
		t.Fatalf("rejected migrations built %d plans", n)
	}
	if err := rz.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestReconfigureSharedPlanAcrossArrays(t *testing.T) {
	// Several arrays aligned to the same template pair migrate on one
	// cached plan: the cache ends the resize with exactly one entry for
	// the pair, dropped wholesale at commit.
	oldT := tpl(t, []int{18}, dad.BlockAxis(3))
	mem := core.NewMembership(3)
	rz, err := mem.ProposeResize(2)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 2)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewCache()
	srcLocals := fillByGlobal(oldT)
	dstA := make([][]float64, 2)
	dstB := make([][]float64, 2)
	comm.Run(3, func(c *comm.Comm) {
		fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond, Cache: cache, Resize: rz}
		s, err := cache.Get(oldT, newT)
		if err != nil {
			t.Error(err)
			return
		}
		var sl []float64
		if c.Rank() < 3 {
			sl = srcLocals[c.Rank()]
		}
		var da, db []float64
		if c.Rank() < 2 {
			da = make([]float64, newT.LocalCount(c.Rank()))
			db = make([]float64, newT.LocalCount(c.Rank()))
		}
		if _, err := xfer(c, s, Layout{}, sl, da, 0, fo); err != nil {
			t.Errorf("rank %d array A: %v", c.Rank(), err)
		}
		if _, err := xfer(c, s, Layout{}, sl, db, 100, fo); err != nil {
			t.Errorf("rank %d array B: %v", c.Rank(), err)
		}
		if c.Rank() < 2 {
			dstA[c.Rank()] = da
			dstB[c.Rank()] = db
		}
	})
	verify(t, newT, dstA)
	verify(t, newT, dstB)
	dropped, err := CommitReconfigure(rz, cache, oldT)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("commit dropped %d entries, want 1 shared plan", dropped)
	}
}

// A resize leaves nothing behind on the hot path: after a committed grow
// 2→4, cached steady-state transfers out of the post-resize geometry (the
// migrated Block(4) cohort feeding a Cyclic(4) consumer) allocate
// nothing. Ranks run sequentially in one goroutine, as in
// TestExchangeSteadyStateZeroAlloc, so AllocsPerRun measures the engine.
func TestCachedSteadyStateAfterResizeZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	oldT := tpl(t, []int{1 << 10}, dad.BlockAxis(2))
	mem := core.NewMembership(2)
	rz, err := mem.ProposeResize(4)
	if err != nil {
		t.Fatal(err)
	}
	newT, err := dad.Reblock(oldT, 4)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewCache()
	migrated, _, errs := runReconfigure(t, mem, rz, oldT, newT, 4, nil,
		func(fo *TransferOpts) { fo.Cache = cache })
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if _, err := CommitReconfigure(rz, cache, oldT); err != nil {
		t.Fatal(err)
	}

	consumer := tpl(t, []int{1 << 10}, dad.CyclicAxis(4))
	cs := comm.NewWorld(8).Comms()
	lay := Layout{SrcBase: 0, DstBase: 4}
	out := make([][]float64, 4)
	for r := range out {
		out[r] = make([]float64, consumer.LocalCount(r))
	}
	s, err := cache.Get(newT, consumer)
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]*Transfer[float64], len(cs))
	for r, c := range cs {
		if ts[r], err = New[float64](c, s, lay, 0, TransferOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		for r := 0; r < 4; r++ {
			if _, err := ts[r].Run(migrated[r], nil); err != nil {
				t.Fatalf("source rank %d: %v", r, err)
			}
		}
		for r := 0; r < 4; r++ {
			if _, err := ts[4+r].Run(nil, out[r]); err != nil {
				t.Fatalf("destination rank %d: %v", r, err)
			}
		}
	}
	step() // warm the pools and mailbox queues
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("cached steady state after a resize allocates: %v allocs per transfer step", allocs)
	}
	verify(t, consumer, out)
}

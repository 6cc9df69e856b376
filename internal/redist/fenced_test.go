package redist

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// runFenced executes one fenced schedule-driven transfer over m+n group
// ranks, with the ranks listed in deadAtEntry pre-marked down (their
// goroutines do not participate, as a crashed process would not). It
// returns the destination buffers and the per-destination outcomes.
func runFenced(t *testing.T, src, dst *dad.Template, policy FailPolicy,
	deadAtEntry []int, opts func(*TransferOpts)) ([][]float64, []*Outcome, []error) {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	mem := core.NewMembership(m + n)
	dead := map[int]bool{}
	for _, g := range deadAtEntry {
		mem.MarkDown(g)
		dead[g] = true
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	outs := make([]*Outcome, n)
	errs := make([]error, n)
	var mu sync.Mutex
	comm.Run(m+n, func(c *comm.Comm) {
		if dead[c.Rank()] {
			return
		}
		fo := TransferOpts{Membership: mem, Policy: policy, PollInterval: time.Millisecond}
		if opts != nil {
			opts(&fo)
		}
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		out, err := xfer(c, s, lay, sl, dl, 0, fo)
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			outs[c.Rank()-m] = out
			errs[c.Rank()-m] = err
			mu.Unlock()
		} else if err != nil {
			t.Errorf("src rank %d: %v", c.Rank(), err)
		}
	})
	return dstLocals, outs, errs
}

func TestExchangeFencedCleanMatchesExchange(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(4))
	got, outs, errs := runFenced(t, src, dst, FailStrict, nil, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dst rank %d: %v", r, err)
		}
		if len(outs[r].Down) != 0 || outs[r].Replanned != nil {
			t.Errorf("dst rank %d: clean transfer reported %+v", r, outs[r])
		}
		if !outs[r].Validity.AllValid() {
			t.Errorf("dst rank %d: clean transfer invalidated elements", r)
		}
	}
	verify(t, dst, got)
}

// lostGlobals marks which destination elements depend on the dead source.
func checkLossPattern(t *testing.T, src, dst *dad.Template, victim int,
	got [][]float64, outs []*Outcome) {
	t.Helper()
	forEachIndex(dst.Dims(), func(idx []int) {
		r := dst.OwnerOf(idx)
		off := dst.LocalOffset(r, idx)
		if src.OwnerOf(idx) == victim {
			if outs[r].Validity.Valid(off) {
				t.Errorf("index %v on dst rank %d: lost element marked valid", idx, r)
			}
		} else {
			if !outs[r].Validity.Valid(off) {
				t.Errorf("index %v on dst rank %d: delivered element marked invalid", idx, r)
			}
			if got[r][off] != fingerprint(idx) {
				t.Errorf("index %v on dst rank %d: got %v, want %v", idx, r, got[r][off], fingerprint(idx))
			}
		}
	})
}

// A lost pair whose plan is a vector run — a block source feeding a
// cyclic destination — is invalidated block by block: every element the
// victim owned, strided through the destination buffer, and nothing else.
func TestExchangeFencedRedistributeVectorLoss(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(3))
	dst := tpl(t, []int{24}, dad.BlockCyclicAxis(2, 2))
	const victim = 1
	got, outs, errs := runFenced(t, src, dst, FailRedistribute, []int{victim}, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dst rank %d: %v", r, err)
		}
	}
	checkLossPattern(t, src, dst, victim, got, outs)
}

func TestExchangeFencedRedistributeDeadAtEntry(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(4))
	const victim = 1 // source rank 1 == group rank 1 (SrcBase 0)

	cache := schedule.NewCache()
	if _, err := cache.Get(src, dst); err != nil {
		t.Fatal(err)
	}
	desc, err := dad.NewDescriptor("f", dad.Float64, dad.ReadWrite, dst)
	if err != nil {
		t.Fatal(err)
	}

	got, outs, errs := runFenced(t, src, dst, FailRedistribute, []int{victim},
		func(fo *TransferOpts) { fo.Cache = cache; fo.Desc = desc })
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dst rank %d: %v", r, err)
		}
		if outs[r].Epoch != 2 {
			t.Errorf("dst rank %d: entry epoch = %d, want 2", r, outs[r].Epoch)
		}
	}
	checkLossPattern(t, src, dst, victim, got, outs)

	// Destinations that lost a pair re-planned and reported the death.
	sched, _ := schedule.Build(src, dst)
	for r := range outs {
		lost := false
		for _, p := range sched.IncomingFor(r) {
			if p.SrcRank == victim {
				lost = true
			}
		}
		if !lost {
			continue
		}
		if len(outs[r].Down) != 1 || outs[r].Down[0] != victim {
			t.Errorf("dst rank %d: Down = %v, want [%d]", r, outs[r].Down, victim)
		}
		if outs[r].Replanned == nil {
			t.Errorf("dst rank %d: no re-plan recorded", r)
			continue
		}
		for _, p := range outs[r].Replanned.Pairs {
			if p.SrcRank == victim {
				t.Errorf("dst rank %d: re-planned schedule still uses the victim", r)
			}
		}
		// The bitmap is attached to the destination DAD.
		if desc.Validity(r) != outs[r].Validity {
			t.Errorf("dst rank %d: validity not attached to descriptor", r)
		}
	}

	// The cached (src, dst) entry was invalidated by the re-plan.
	if cache.Invalidate(src, dst) {
		t.Error("schedule cache still holds the pre-failure plan")
	}
}

func TestExchangeFencedSuspectsSilentSource(t *testing.T) {
	// Nobody marks the victim down: the victim simply never sends, and
	// receiver-side suspicion (SuspectAfter) must detect it mid-transfer
	// and re-plan.
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(2))
	const victim = 2
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := 3, 2
	mem := core.NewMembership(m + n)
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	outs := make([]*Outcome, n)
	var mu sync.Mutex
	comm.Run(m+n, func(c *comm.Comm) {
		if c.Rank() == victim {
			return // crashed before sending anything
		}
		fo := TransferOpts{
			Membership:   mem,
			Policy:       FailRedistribute,
			PollInterval: 2 * time.Millisecond,
			SuspectAfter: 30 * time.Millisecond,
		}
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		out, err := xfer(c, s, lay, sl, dl, 0, fo)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			outs[c.Rank()-m] = out
			mu.Unlock()
		}
	})
	if mem.IsAlive(victim) {
		t.Fatal("silent source never suspected")
	}
	checkLossPattern(t, src, dst, victim, dstLocals, outs)
}

func TestExchangeFencedStrictReturnsTypedError(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(4))
	const victim = 1
	_, _, errs := runFenced(t, src, dst, FailStrict, []int{victim}, nil)

	sched, _ := schedule.Build(src, dst)
	sawTyped := false
	for r, err := range errs {
		lost := false
		for _, p := range sched.IncomingFor(r) {
			if p.SrcRank == victim {
				lost = true
			}
		}
		if !lost {
			if err != nil {
				t.Errorf("dst rank %d depends only on live sources but failed: %v", r, err)
			}
			continue
		}
		var down *core.ErrRankDown
		if !errors.As(err, &down) {
			t.Errorf("dst rank %d: err = %v, want *core.ErrRankDown", r, err)
			continue
		}
		if down.Rank != victim {
			t.Errorf("dst rank %d: ErrRankDown.Rank = %d, want %d", r, down.Rank, victim)
		}
		sawTyped = true
	}
	if !sawTyped {
		t.Fatal("no destination surfaced *core.ErrRankDown")
	}
}

func TestExchangeFencedRejectsStaleEpoch(t *testing.T) {
	// A leftover message stamped at an older epoch must be discarded,
	// and the current epoch's message accepted in its place.
	src := tpl(t, []int{4}, dad.BlockAxis(1))
	dst := tpl(t, []int{4}, dad.BlockAxis(1))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	w := comm.NewWorld(3) // rank 0 source, rank 1 destination, rank 2 phantom
	cs := w.Comms()
	mem := core.NewMembership(3)
	mem.MarkDown(2) // bump epoch to 2 without touching the cohorts

	// Inject a pre-failure leftover under the transfer's tag.
	stale := newMsg[float64](1, 4)
	copy(elemsOf[float64](stale.data, 4), []float64{-1, -1, -1, -1})
	cs[0].Send(1, 0, stale)

	srcLocal := []float64{10, 11, 12, 13}
	dstLocal := make([]float64, 4)
	fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond}
	lay := Layout{SrcBase: 0, DstBase: 1}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := xfer(cs[0], s, lay, srcLocal, nil, 0, fo); err != nil {
			t.Errorf("source: %v", err)
		}
	}()
	out, err := xfer(cs[1], s, lay, nil, dstLocal, 0, fo)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Validity.AllValid() {
		t.Error("clean fenced transfer invalidated elements")
	}
	for i, v := range dstLocal {
		if v != srcLocal[i] {
			t.Fatalf("dstLocal = %v: stale payload not rejected", dstLocal)
		}
	}
}

func runLinearFenced(t *testing.T, src, dst *dad.Template, policy FailPolicy,
	deadAtEntry []int) ([][]float64, []*Outcome, []error) {
	t.Helper()
	srcLin := schedule.NewRowMajor(src)
	dstLin := schedule.NewRowMajor(dst)
	m, n := src.NumProcs(), dst.NumProcs()
	mem := core.NewMembership(m + n)
	dead := map[int]bool{}
	for _, g := range deadAtEntry {
		mem.MarkDown(g)
		dead[g] = true
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	outs := make([]*Outcome, n)
	errs := make([]error, n)
	var mu sync.Mutex
	comm.Run(m+n, func(c *comm.Comm) {
		if dead[c.Rank()] {
			return
		}
		fo := TransferOpts{Membership: mem, Policy: policy, PollInterval: time.Millisecond}
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		out, err := xferLinear(c, srcLin, dstLin, lay, sl, dl, 0, fo)
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			outs[c.Rank()-m] = out
			errs[c.Rank()-m] = err
			mu.Unlock()
		} else if err != nil {
			t.Errorf("src rank %d: %v", c.Rank(), err)
		}
	})
	return dstLocals, outs, errs
}

func TestLinearExchangeFencedClean(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	got, outs, errs := runLinearFenced(t, src, dst, FailStrict, nil)
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dst rank %d: %v", r, err)
		}
		if !outs[r].Validity.AllValid() {
			t.Errorf("dst rank %d: clean transfer invalidated elements", r)
		}
	}
	verify(t, dst, got)
}

func TestLinearExchangeFencedRedistribute(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	const victim = 1
	got, outs, errs := runLinearFenced(t, src, dst, FailRedistribute, []int{victim})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("dst rank %d: %v", r, err)
		}
	}
	checkLossPattern(t, src, dst, victim, got, outs)
}

func TestLinearExchangeFencedStrict(t *testing.T) {
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.CyclicAxis(2))
	const victim = 1
	_, _, errs := runLinearFenced(t, src, dst, FailStrict, []int{victim})
	sawTyped := false
	for r, err := range errs {
		var down *core.ErrRankDown
		if errors.As(err, &down) {
			if down.Rank != victim {
				t.Errorf("dst rank %d: ErrRankDown.Rank = %d, want %d", r, down.Rank, victim)
			}
			sawTyped = true
		}
	}
	if !sawTyped {
		t.Fatal("no destination surfaced *core.ErrRankDown")
	}
}

// One handle per rank survives a source's death: Runs before it are
// clean, every Run after it completes on the survivors under
// FailRedistribute with its own Outcome — the lost elements invalid, the
// victim in Down, the rest delivered — and the Outcomes of earlier Runs
// are left untouched. Nothing pooled is leaked across the loss.
func TestHandleReusedAcrossLostSource(t *testing.T) {
	baseline := bufpool.Outstanding()
	src := tpl(t, []int{12}, dad.BlockAxis(3))
	dst := tpl(t, []int{12}, dad.BlockAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n, victim, steps = 3, 2, 1, 6
	cs := comm.NewWorld(m + n).Comms()
	mem := core.NewMembership(m + n)
	fo := TransferOpts{Membership: mem, Policy: FailRedistribute, PollInterval: time.Millisecond}
	ts := make([]*Transfer[float64], m+n)
	for r, c := range cs {
		if ts[r], err = New[float64](c, s, Layout{SrcBase: 0, DstBase: m}, 0, fo); err != nil {
			t.Fatal(err)
		}
	}
	srcLocals := fillByGlobal(src)
	var first []*Outcome
	for k := 0; k < steps; k++ {
		if k == steps/2 {
			mem.MarkDown(victim) // between Runs: the victim takes no further part
		}
		dstLocals := make([][]float64, n)
		outs := make([]*Outcome, n)
		var wg sync.WaitGroup
		for r := range ts {
			if r == victim && !mem.IsAlive(victim) {
				continue
			}
			var sl, dl []float64
			if r < m {
				sl = srcLocals[r]
			} else {
				dl = make([]float64, dst.LocalCount(r-m))
				dstLocals[r-m] = dl
			}
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out, err := ts[r].Run(sl, dl)
				if err != nil {
					t.Errorf("step %d rank %d: %v", k, r, err)
				}
				if dl != nil {
					outs[r-m] = out
				}
			}(r)
		}
		wg.Wait()
		if k < steps/2 {
			for r, out := range outs {
				if len(out.Down) != 0 || !out.Validity.AllValid() {
					t.Fatalf("step %d dst rank %d: clean run reported Down %v, %d invalid", k, r, out.Down, out.Validity.CountInvalid())
				}
			}
			verify(t, dst, dstLocals)
			if first == nil {
				first = outs
			}
			continue
		}
		checkLossPattern(t, src, dst, victim, dstLocals, outs)
		for r, out := range outs {
			if !reflect.DeepEqual(out.Down, []int{victim}) {
				t.Errorf("step %d dst rank %d: Down = %v, want [%d]", k, r, out.Down, victim)
			}
		}
	}
	for r, out := range first {
		if len(out.Down) != 0 || !out.Validity.AllValid() {
			t.Errorf("dst rank %d: a later Run rewrote the first Run's Outcome", r)
		}
	}
	if d := bufpool.Outstanding() - baseline; d != 0 {
		t.Errorf("bufpool outstanding moved by %+d across the handle's runs", d)
	}
}

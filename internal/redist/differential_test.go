package redist

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// Differential guarantee: with every rank alive, the fenced engine must
// produce destination buffers bit-identical to the unfenced engine — the
// epoch stamps, liveness checks and polling receives are pure overhead,
// never a semantic change. Ranks are launched in shuffled order so the
// comparison also holds under arbitrary interleavings (run under -race by
// `make race`).

// launchShuffled runs fn for every rank of an n-rank world, starting the
// goroutines in the given order.
func launchShuffled(n int, order []int, fn func(c *comm.Comm)) {
	cs := comm.NewWorld(n).Comms()
	var wg sync.WaitGroup
	for _, r := range order {
		wg.Add(1)
		go func(c *comm.Comm) {
			defer wg.Done()
			fn(c)
		}(cs[r])
	}
	wg.Wait()
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// elemLedger snapshots the engine's one accounting identity and returns
// the check to run at quiescence: every element a sender packed or lent
// was unpacked by a receiver, whichever way the transfer was chunked,
// fenced or lent.
func elemLedger(t *testing.T) func() {
	t.Helper()
	open := func() int64 {
		return int64(mElemsPacked.Value()+mElemsLent.Value()) - int64(mElemsUnpack.Value())
	}
	base := open()
	return func() {
		t.Helper()
		if d := open() - base; d != 0 {
			t.Errorf("elems_packed + elems_lent - elems_unpacked moved by %d over clean transfers, want 0", d)
		}
	}
}

func TestFencedMatchesUnfencedExchange(t *testing.T) {
	defer elemLedger(t)()
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		dims := []int{1 + rng.Intn(9), 1 + rng.Intn(9)}
		mk := func() *dad.Template {
			axes := []dad.AxisDist{
				dad.BlockAxis(1 + rng.Intn(3)),
				dad.CyclicAxis(1 + rng.Intn(3)),
			}
			if rng.Intn(2) == 0 {
				axes[0], axes[1] = axes[1], axes[0]
			}
			out, err := dad.NewTemplate(dims, axes)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		src, dst := mk(), mk()
		s, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		m, n := src.NumProcs(), dst.NumProcs()
		lay := Layout{SrcBase: 0, DstBase: m}
		srcLocals := fillByGlobal(src)
		order := rng.Perm(m + n)

		run := func(fenced bool) [][]float64 {
			got := make([][]float64, n)
			var mu sync.Mutex
			mem := core.NewMembership(m + n)
			launchShuffled(m+n, order, func(c *comm.Comm) {
				var sl, dl []float64
				if c.Rank() < m {
					sl = srcLocals[c.Rank()]
				} else {
					dl = make([]float64, dst.LocalCount(c.Rank()-m))
				}
				var err error
				if fenced {
					var out *Outcome
					out, err = xfer(c, s, lay, sl, dl, 0, TransferOpts{Membership: mem})
					if err == nil && dl != nil && !out.Validity.AllValid() {
						t.Errorf("trial %d: clean fenced transfer invalidated elements", trial)
					}
				} else {
					_, err = xfer(c, s, lay, sl, dl, 0, TransferOpts{})
				}
				if err != nil {
					t.Errorf("trial %d rank %d (fenced=%v): %v", trial, c.Rank(), fenced, err)
				}
				if dl != nil {
					mu.Lock()
					got[c.Rank()-m] = dl
					mu.Unlock()
				}
			})
			return got
		}

		plain := run(false)
		fenced := run(true)
		for r := range plain {
			if !bitsEqual(plain[r], fenced[r]) {
				t.Fatalf("trial %d: dst rank %d differs between fenced and unfenced engines\nplain:  %v\nfenced: %v",
					trial, r, plain[r], fenced[r])
			}
		}
		verify(t, dst, fenced)
	}
}

func TestFencedMatchesUnfencedLinear(t *testing.T) {
	defer elemLedger(t)()
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(8)}
		src, err := dad.NewTemplate(dims, []dad.AxisDist{dad.BlockAxis(1 + rng.Intn(2)), dad.BlockAxis(1 + rng.Intn(3))})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := dad.NewTemplate(dims, []dad.AxisDist{dad.CyclicAxis(1 + rng.Intn(3)), dad.CollapsedAxis()})
		if err != nil {
			t.Fatal(err)
		}
		srcLin := schedule.NewRowMajor(src)
		dstLin := schedule.NewRowMajor(dst)
		m, n := src.NumProcs(), dst.NumProcs()
		lay := Layout{SrcBase: 0, DstBase: m}
		srcLocals := fillByGlobal(src)
		order := rng.Perm(m + n)

		run := func(fenced bool) [][]float64 {
			got := make([][]float64, n)
			var mu sync.Mutex
			mem := core.NewMembership(m + n)
			launchShuffled(m+n, order, func(c *comm.Comm) {
				var sl, dl []float64
				if c.Rank() < m {
					sl = srcLocals[c.Rank()]
				} else {
					dl = make([]float64, dst.LocalCount(c.Rank()-m))
				}
				var err error
				if fenced {
					_, err = xferLinear(c, srcLin, dstLin, lay, sl, dl, 0, TransferOpts{Membership: mem})
				} else {
					_, err = xferLinear(c, srcLin, dstLin, lay, sl, dl, 0, TransferOpts{})
				}
				if err != nil {
					t.Errorf("trial %d rank %d (fenced=%v): %v", trial, c.Rank(), fenced, err)
				}
				if dl != nil {
					mu.Lock()
					got[c.Rank()-m] = dl
					mu.Unlock()
				}
			})
			return got
		}

		plain := run(false)
		fenced := run(true)
		for r := range plain {
			if !bitsEqual(plain[r], fenced[r]) {
				t.Fatalf("trial %d: dst rank %d differs between fenced and unfenced linear engines", trial, r)
			}
		}
		verify(t, dst, fenced)
	}
}

// Differential guarantee for the planning fast path, end to end: a
// transfer driven by a closed-form schedule must fill destination buffers
// bit-identical to one driven by the patch-enumeration schedule for the
// same template pair. The schedule-level differential tests prove the
// plans equivalent; this proves the engine treats them identically.
func TestFastPathMatchesEnumeratorExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 8; trial++ {
		dims := []int{1 + rng.Intn(9), 1 + rng.Intn(9)}
		mk := func() *dad.Template {
			axes := []dad.AxisDist{
				dad.BlockAxis(1 + rng.Intn(3)),
				dad.CyclicAxis(1 + rng.Intn(3)),
			}
			if rng.Intn(2) == 0 {
				axes[0], axes[1] = axes[1], axes[0]
			}
			out, err := dad.NewTemplate(dims, axes)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		src, dst := mk(), mk()
		fast, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !fast.FastPath() {
			t.Fatalf("trial %d: closed-form pair %s → %s missed the fast path", trial, src.Key(), dst.Key())
		}
		enum, err := schedule.BuildWith(src, dst, schedule.BuildOpts{DisableFastPath: true})
		if err != nil {
			t.Fatal(err)
		}
		m, n := src.NumProcs(), dst.NumProcs()
		lay := Layout{SrcBase: 0, DstBase: m}
		srcLocals := fillByGlobal(src)
		order := rng.Perm(m + n)

		run := func(s *schedule.Schedule) [][]float64 {
			got := make([][]float64, n)
			var mu sync.Mutex
			launchShuffled(m+n, order, func(c *comm.Comm) {
				var sl, dl []float64
				if c.Rank() < m {
					sl = srcLocals[c.Rank()]
				} else {
					dl = make([]float64, dst.LocalCount(c.Rank()-m))
				}
				if _, err := xfer(c, s, lay, sl, dl, 0, TransferOpts{}); err != nil {
					t.Errorf("trial %d rank %d: %v", trial, c.Rank(), err)
				}
				if dl != nil {
					mu.Lock()
					got[c.Rank()-m] = dl
					mu.Unlock()
				}
			})
			return got
		}

		viaFast := run(fast)
		viaEnum := run(enum)
		for r := range viaEnum {
			if !bitsEqual(viaFast[r], viaEnum[r]) {
				t.Fatalf("trial %d: dst rank %d differs between fast-path and enumerator schedules\nfast: %v\nenum: %v",
					trial, r, viaFast[r], viaEnum[r])
			}
		}
		verify(t, dst, viaFast)
	}
}

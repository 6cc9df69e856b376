package redist

import (
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// steadyWorld builds a 2-source / 2-destination world whose transfers can
// run sequentially in one goroutine: sources post all their messages
// without blocking (comm sends never block), then destinations find every
// expected message already queued. That determinism is what lets
// AllocsPerRun measure the engine rather than scheduler noise. Each rank
// holds one persistent handle, built once.
type steadyWorld struct {
	cs        []*comm.Comm
	s         *schedule.Schedule
	lay       Layout
	ts        []*Transfer[float64]
	srcLocals [][]float64
	dstLocals [][]float64
}

func newSteadyWorld(t testing.TB) *steadyWorld {
	src, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.CyclicAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	w := &steadyWorld{
		cs:  comm.NewWorld(4).Comms(),
		lay: Layout{SrcBase: 0, DstBase: 2},
	}
	w.plan(t, s)
	for r := 0; r < 2; r++ {
		w.srcLocals = append(w.srcLocals, make([]float64, src.LocalCount(r)))
		w.dstLocals = append(w.dstLocals, make([]float64, dst.LocalCount(r)))
	}
	return w
}

// plan (re)builds every rank's handle on s.
func (w *steadyWorld) plan(t testing.TB, s *schedule.Schedule) {
	w.s, w.ts = s, w.ts[:0]
	for _, c := range w.cs {
		xt, err := New[float64](c, s, w.lay, 0, TransferOpts{})
		if err != nil {
			t.Fatal(err)
		}
		w.ts = append(w.ts, xt)
	}
}

// step runs one full transfer: both sources send, both destinations
// receive, all in the calling goroutine.
func (w *steadyWorld) step(t testing.TB) {
	for r := 0; r < 2; r++ {
		if _, err := w.ts[r].Run(w.srcLocals[r], nil); err != nil {
			t.Fatalf("source rank %d: %v", r, err)
		}
	}
	for r := 0; r < 2; r++ {
		if _, err := w.ts[2+r].Run(nil, w.dstLocals[r]); err != nil {
			t.Fatalf("destination rank %d: %v", r, err)
		}
	}
}

// The tentpole guarantee: a steady-state Run over a cached schedule
// allocates nothing. The handle owns its per-run state, message headers
// and data buffers cycle through free lists, and the indexed schedule
// accessors avoid the per-rank slice views. The first AllocsPerRun
// invocation is a warm-up (pools fill, mailbox queues reach capacity);
// the measured runs must then be allocation-free.
func TestExchangeSteadyStateZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	w := newSteadyWorld(t)
	w.step(t) // warm the pools and mailbox queues
	allocs := testing.AllocsPerRun(50, func() { w.step(t) })
	if allocs != 0 {
		t.Fatalf("steady-state Run allocates: %v allocs per transfer step", allocs)
	}
}

// Satellite guarantee: ExecuteLocalT stages through the buffer pool instead
// of allocating a fresh backing slice per call.
func TestExecuteLocalZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	src, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.CyclicAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := make([][]float64, 2)
	dstLocals := make([][]float64, 2)
	for r := 0; r < 2; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	ExecuteLocalT(s, srcLocals, dstLocals) // warm the pool
	allocs := testing.AllocsPerRun(50, func() { ExecuteLocalT(s, srcLocals, dstLocals) })
	if allocs != 0 {
		t.Fatalf("ExecuteLocalT[float64] allocates: %v allocs/op", allocs)
	}

	// The float32 instantiation shares the same byte pool.
	src32 := make([][]float32, 2)
	dst32 := make([][]float32, 2)
	for r := 0; r < 2; r++ {
		src32[r] = make([]float32, src.LocalCount(r))
		dst32[r] = make([]float32, dst.LocalCount(r))
	}
	ExecuteLocalT(s, src32, dst32)
	allocs = testing.AllocsPerRun(50, func() { ExecuteLocalT(s, src32, dst32) })
	if allocs != 0 {
		t.Fatalf("ExecuteLocalT[float32] allocates: %v allocs/op", allocs)
	}
}

// benchSteady drives full transfer steps for -benchmem reporting;
// allocs/op must report 0 in steady state.
func benchSteady(b *testing.B, cached bool) {
	obs.DisableTracing()
	w := newSteadyWorld(b)
	w.step(b)
	elems := int64(1 << 10)
	b.ReportAllocs()
	b.SetBytes(elems * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !cached {
			// Rebuild the schedule and the handles each iteration: the
			// uncached baseline.
			s, err := schedule.Build(w.s.Src, w.s.Dst)
			if err != nil {
				b.Fatal(err)
			}
			w.plan(b, s)
		}
		w.step(b)
	}
}

func BenchmarkExchangeSteadyCached(b *testing.B)   { benchSteady(b, true) }
func BenchmarkExchangeSteadyUncached(b *testing.B) { benchSteady(b, false) }

// zcSteadyWorld is steadyWorld for the zero-copy fast path. The
// rendezvous (senders wait for receivers to unpack the lent views)
// means ranks cannot run sequentially in one goroutine, so the ranks
// are persistent workers signalled over pre-allocated channels —
// testing.AllocsPerRun counts mallocs process-wide, so the workers'
// allocations are still observed.
type zcSteadyWorld struct {
	start []chan struct{}
	done  chan error
}

func newZCSteadyWorld(t testing.TB) *zcSteadyWorld {
	// Block → block with different widths: every cross-rank message is a
	// single contiguous run, so the whole steady state rides the lent-view
	// path (no pack, no pooled data buffer).
	src, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{1 << 10}, []dad.AxisDist{dad.BlockAxis(3)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cs := comm.NewWorld(5).Comms()
	lay := Layout{SrcBase: 0, DstBase: 2}
	w := &zcSteadyWorld{done: make(chan error, 5)}
	for r := 0; r < 5; r++ {
		ch := make(chan struct{}, 1)
		w.start = append(w.start, ch)
		go func(r int, ch chan struct{}) {
			var sl, dl []float64
			if r < 2 {
				sl = make([]float64, src.LocalCount(r))
			} else {
				dl = make([]float64, dst.LocalCount(r-2))
			}
			xt, err := New[float64](cs[r], s, lay, 0, TransferOpts{ZeroCopyLocal: true})
			for range ch {
				if err == nil {
					_, err = xt.Run(sl, dl)
				}
				w.done <- err
			}
		}(r, ch)
	}
	return w
}

func (w *zcSteadyWorld) step(t testing.TB) {
	for _, ch := range w.start {
		ch <- struct{}{}
	}
	for range w.start {
		if err := <-w.done; err != nil {
			t.Fatalf("zero-copy step: %v", err)
		}
	}
}

func (w *zcSteadyWorld) close() {
	for _, ch := range w.start {
		close(ch)
	}
}

// The fast path's own guarantee: lending views instead of packing must
// not re-introduce allocations — message structs and rendezvous wait
// groups cycle through free lists like everything else.
func TestZeroCopyExchangeSteadyStateZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	hits := mZeroCopyHits.Value()
	w := newZCSteadyWorld(t)
	defer w.close()
	w.step(t)
	w.step(t) // warm pools, mailboxes and worker stacks
	if mZeroCopyHits.Value() == hits {
		t.Fatal("warm-up took no fast-path sends; the shape is wrong for this test")
	}
	allocs := testing.AllocsPerRun(50, func() { w.step(t) })
	if allocs != 0 {
		t.Fatalf("steady-state zero-copy Run allocates: %v allocs per transfer step", allocs)
	}
}

package redist

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// Regression: ExecuteLocalT with aliased source and destination buffers (a
// self-redistribution in place). The interleaved pack/unpack it used to do
// read source elements that an earlier pair's unpack had already
// overwritten; all pairs must be packed before any is unpacked — also for
// a 256 KiB transfer, four times the window it once staged through.
func TestExecuteLocalAliasedBuffers(t *testing.T) {
	for _, n := range []int{16, 1 << 15} {
		src := tpl(t, []int{n}, dad.BlockAxis(2))
		dst := tpl(t, []int{n}, dad.CyclicAxis(2))
		s, err := schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}

		// Reference result with disjoint buffers.
		want := make([][]float64, dst.NumProcs())
		for r := range want {
			want[r] = make([]float64, dst.LocalCount(r))
		}
		ExecuteLocalT(s, fillByGlobal(src), want)

		// In-place: the same slices serve as source and destination. Local
		// counts match (n/2 elements per rank on both sides), so this is
		// the legal aliased case.
		locals := fillByGlobal(src)
		ExecuteLocalT(s, locals, locals)
		for r := range want {
			for i := range want[r] {
				if locals[r][i] != want[r][i] {
					t.Fatalf("n=%d aliased rank %d elem %d: got %v, want %v", n, r, i, locals[r][i], want[r][i])
				}
			}
		}
		verify(t, dst, locals)
	}
}

// Regression: a destination that detects a bad message mid-transfer must
// still consume the rest of its expected messages, or the leftovers stay
// queued under baseTag and cross-match the next transfer reusing that tag.
// Transfer 1 is hand-played by the sources with one mis-sized message and
// one sentinel-valued message; transfer 2 runs the real protocol on the
// SAME tag — through the same destination handle — and must come through
// intact.
func TestExchangeDrainsAfterError(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, 2)
	var mu sync.Mutex
	comm.Run(4, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 2}
		const tag = 0
		switch r := c.Rank(); {
		case r < 2:
			// Transfer 1, hand-played: rank 0 sends destination rank 0 a
			// message one element too long; everything else gets a
			// correct-length sentinel payload.
			for _, p := range s.OutgoingFor(r) {
				n := p.Elems
				if r == 0 && p.DstRank == 0 {
					n++
				}
				bad := newMsg[float64](0, n)
				vals := elemsOf[float64](bad.data, n)
				for i := range vals {
					vals[i] = -999
				}
				c.Send(lay.DstBase+p.DstRank, tag, bad)
			}
			// Transfer 2: the real protocol on the same tag.
			if _, err := xfer(c, s, lay, srcLocals[r], nil, tag, TransferOpts{}); err != nil {
				t.Errorf("source rank %d transfer 2: %v", r, err)
			}
		default:
			xt, err := New[float64](c, s, lay, tag, TransferOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			dl := make([]float64, dst.LocalCount(r-2))
			_, err = xt.Run(nil, dl)
			if r == 2 {
				var ece *ElemCountError
				if !errors.As(err, &ece) {
					t.Errorf("dst rank 0 transfer 1: got %v, want ElemCountError", err)
				}
			} else if err != nil {
				t.Errorf("dst rank %d transfer 1: %v", r-2, err)
			}
			// Transfer 2 on the same tag must see only transfer-2 data.
			dl2 := make([]float64, dst.LocalCount(r-2))
			if _, err := xt.Run(nil, dl2); err != nil {
				t.Errorf("dst rank %d transfer 2: %v", r-2, err)
			}
			mu.Lock()
			dstLocals[r-2] = dl2
			mu.Unlock()
		}
	})
	verify(t, dst, dstLocals)
}

// Regression: the linear exchange used to discard the source result of
// Recv(AnySource) and trust both arrival order and the reply's own claim
// about which positions it carries. Lowered to a schedule, a chunk is
// checked against the pair it belongs to: a source that sends one element
// short is blamed by name, the destination drains, and transfer 2 on the
// same base tag — through the same handles — still works.
func TestLinearExchangeValidatesAndDrains(t *testing.T) {
	src := tpl(t, []int{8}, dad.BlockAxis(2))
	dst := tpl(t, []int{8}, dad.CyclicAxis(2))
	srcLin := schedule.NewRowMajor(src)
	dstLin := schedule.NewRowMajor(dst)
	s, err := schedule.FromLinear(srcLin, dstLin)
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, 2)
	var mu sync.Mutex
	comm.Run(4, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 2}
		const tag = 0
		switch r := c.Rank(); {
		case r == 0:
			// Transfer 1, hand-played misbehaving source: destination
			// rank 0 gets one element fewer than its pair moves,
			// destination rank 1 an honest message.
			for _, p := range s.OutgoingFor(0) {
				n := p.Elems
				if p.DstRank == 0 {
					n--
				}
				m := newMsg[float64](0, n)
				schedule.PackSliceRange(p, srcLocals[0], elemsOf[float64](m.data, n), 0)
				c.Send(lay.DstBase+p.DstRank, tag, m)
			}
			// Transfer 2: honest protocol on the same base tag.
			if _, err := xferLinear(c, srcLin, dstLin, lay, srcLocals[0], nil, tag, TransferOpts{}); err != nil {
				t.Errorf("source rank 0 transfer 2: %v", err)
			}
		case r == 1:
			xt, err := New[float64](c, s, lay, tag, TransferOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			for transfer := 0; transfer < 2; transfer++ {
				if _, err := xt.Run(srcLocals[1], nil); err != nil {
					t.Errorf("source rank 1 transfer %d: %v", transfer+1, err)
				}
			}
		default:
			xt, err := New[float64](c, s, lay, tag, TransferOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			dl := make([]float64, dst.LocalCount(r-2))
			_, err = xt.Run(nil, dl)
			if r == 2 {
				var ece *ElemCountError
				if !errors.As(err, &ece) {
					t.Errorf("dst rank 0 transfer 1: got %v, want ElemCountError", err)
				} else if ece.SrcRank != 0 {
					t.Errorf("dst rank 0 transfer 1: blamed source rank %d", ece.SrcRank)
				}
			} else if err != nil {
				t.Errorf("dst rank %d transfer 1: %v", r-2, err)
			}
			dl2 := make([]float64, dst.LocalCount(r-2))
			if _, err := xt.Run(nil, dl2); err != nil {
				t.Errorf("dst rank %d transfer 2: %v", r-2, err)
			}
			mu.Lock()
			dstLocals[r-2] = dl2
			mu.Unlock()
		}
	})
	verify(t, dst, dstLocals)
}

// Guard: the metric updates on a Run's pack/send/receive path are pure
// atomic operations and must not allocate, and they count exactly each
// step's work: steady-state Runs with the instruments live allocate
// nothing while every counter moves by its per-step amount. (comm.Send
// boxing and the message buffer are pooled away here; their raw cost is
// measured by BenchmarkExchangePackPath.)
func TestExchangeMetricsZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	w := newSteadyWorld(t)
	w.step(t) // warm the pools and mailbox queues
	sent, recv, packed, unpacked := mMsgsSent.Value(), mMsgsRecv.Value(), mElemsPacked.Value(), mElemsUnpack.Value()
	packs, sizes := mPackNS.Count(), mMsgElems.Count()
	const runs = 100
	allocs := testing.AllocsPerRun(runs, func() { w.step(t) })
	if allocs != 0 {
		t.Fatalf("instrumented steady-state Run allocates: %v allocs per transfer step", allocs)
	}
	steps := uint64(runs + 1) // AllocsPerRun warms up with one extra call
	msgs, elems := steps*uint64(w.s.NumMessages()), steps*uint64(w.s.TotalElems())
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"msgs_sent", mMsgsSent.Value() - sent, msgs},
		{"msgs_recv", mMsgsRecv.Value() - recv, msgs},
		{"elems_packed", mElemsPacked.Value() - packed, elems},
		{"elems_unpacked", mElemsUnpack.Value() - unpacked, elems},
		{"pack_ns observations", mPackNS.Count() - packs, msgs},
		{"msg_elems observations", mMsgElems.Count() - sizes, msgs},
	} {
		if c.got != c.want {
			t.Errorf("%s moved by %d over %d steps, want %d", c.name, c.got, steps, c.want)
		}
	}
}

// BenchmarkExchangePackPath times one instrumented pack iteration with
// -benchmem; the metrics themselves contribute zero, as asserted by
// TestExchangeMetricsZeroAlloc.
func BenchmarkExchangePackPath(b *testing.B) {
	out, err := dad.NewTemplate([]int{1 << 12}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		b.Fatal(err)
	}
	in, err := dad.NewTemplate([]int{1 << 12}, []dad.AxisDist{dad.CyclicAxis(2)})
	if err != nil {
		b.Fatal(err)
	}
	s, err := schedule.Build(out, in)
	if err != nil {
		b.Fatal(err)
	}
	p := s.OutgoingFor(0)[0]
	local := make([]float64, out.LocalCount(0))
	buf := make([]float64, p.Elems)
	tr := obs.Trace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		schedule.PackSlice(p, local, buf)
		mPackNS.ObserveSince(start)
		tr.Span(obs.EvPack, "", 0, p.DstRank, int64(p.Elems), start)
		mMsgsSent.Inc()
		mElemsPacked.Add(uint64(p.Elems))
		mMsgElems.Observe(int64(p.Elems))
	}
}

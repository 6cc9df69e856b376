package redist

import (
	"bytes"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// runMatrixT runs one in-process exchange of the matrix shape —
// block(2) → block(3), every cross-cohort pair a single contiguous run —
// under the given knobs and returns the destination locals.
func runMatrixT[T Elem](t *testing.T, conv func(float64) T, fenced bool, budget int, zc bool) [][]T {
	t.Helper()
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]T, n)
	var mem *core.Membership
	if fenced {
		mem = core.NewMembership(m + n)
	}
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []T
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]T, dst.LocalCount(c.Rank()-m))
		}
		var xerr error
		if fenced {
			fo := TransferOpts{Membership: mem, PollInterval: time.Millisecond, MaxBytesInFlight: budget}
			_, xerr = xfer(c, s, lay, sl, dl, 0, fo)
		} else {
			opts := TransferOpts{MaxBytesInFlight: budget, ZeroCopyLocal: zc}
			_, xerr = xfer(c, s, lay, sl, dl, 0, opts)
		}
		if xerr != nil {
			t.Errorf("rank %d: %v", c.Rank(), xerr)
		}
		if dl != nil {
			dstLocals[c.Rank()-m] = dl
		}
	})
	return dstLocals
}

func sameLocals[T Elem](t *testing.T, a, b [][]T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("rank count differs: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if !bytes.Equal(bytesOf(a[r]), bytesOf(b[r])) {
			t.Errorf("rank %d: zero-copy result differs bitwise from legacy", r)
		}
	}
}

// TestZeroCopyDifferentialMatrix: for every element kind, fenced and
// unfenced, budgeted and unbudgeted, the destination bytes with
// ZeroCopyLocal on are bit-identical to the legacy copying path, and the
// legacy path itself verifies against the fingerprints.
func TestZeroCopyDifferentialMatrix(t *testing.T) {
	defer elemLedger(t)()
	type cfg struct {
		name   string
		fenced bool
		budget int
	}
	cfgs := []cfg{
		{"unfenced", false, 0},
		{"unfenced-budget", false, 64},
		{"fenced", true, 0},
		{"fenced-budget", true, 64},
	}
	run := func(t *testing.T, name string, body func(t *testing.T, fenced bool, budget int)) {
		for _, c := range cfgs {
			t.Run(name+"/"+c.name, func(t *testing.T) { body(t, c.fenced, c.budget) })
		}
	}
	run(t, "float64", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) float64 { return v }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "float32", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) float32 { return float32(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "int64", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) int64 { return int64(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "int32", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) int32 { return int32(v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
	run(t, "complex128", func(t *testing.T, fenced bool, budget int) {
		conv := func(v float64) complex128 { return complex(v, -v) }
		legacy := runMatrixT(t, conv, fenced, budget, false)
		zc := runMatrixT(t, conv, fenced, budget, true)
		verifyT(t, tpl(t, []int{24}, dad.BlockAxis(3)), legacy, conv)
		sameLocals(t, legacy, zc)
	})
}

// TestZeroCopyHitCounter: the all-contiguous shape takes the fast path
// on every cross-rank message when enabled, and never when disabled.
func TestZeroCopyHitCounter(t *testing.T) {
	conv := func(v float64) float64 { return v }

	before := mZeroCopyHits.Value()
	runMatrixT(t, conv, false, 0, false)
	if got := mZeroCopyHits.Value() - before; got != 0 {
		t.Fatalf("fast path taken %d times with ZeroCopyLocal off", got)
	}

	before = mZeroCopyHits.Value()
	runMatrixT(t, conv, false, 0, true)
	// block(2)→block(3) over 24 elements: 4 cross-rank contiguous sends.
	if got := mZeroCopyHits.Value() - before; got != 4 {
		t.Fatalf("fast-path hits = %d, want 4", got)
	}
}

// TestZeroCopyPacksNothing: during a pure-contiguous zero-copy exchange
// the packer is never invoked — the "at most one copy" claim, measured.
func TestZeroCopyPacksNothing(t *testing.T) {
	conv := func(v float64) float64 { return v }
	before := mElemsPacked.Value()
	runMatrixT(t, conv, false, 0, true)
	if got := mElemsPacked.Value() - before; got != 0 {
		t.Fatalf("packed %d elements during a zero-copy exchange, want 0", got)
	}
}

// TestZeroCopyNonContiguousFallsBack: a cyclic destination fragments
// every outgoing run, so the fast path must decline (misses, no hits)
// and the transfer still verifies.
func TestZeroCopyNonContiguousFallsBack(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	hitsBefore := mZeroCopyHits.Value()
	missBefore := mZeroCopyMisses.Value()
	comm.Run(m+n, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		if _, err := xfer(c, s, lay, sl, dl, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			dstLocals[c.Rank()-m] = dl
		}
	})
	verify(t, dst, dstLocals)
	if got := mZeroCopyHits.Value() - hitsBefore; got != 0 {
		t.Fatalf("fast-path hits = %d on a fragmented shape, want 0", got)
	}
	if mZeroCopyMisses.Value() == missBefore {
		t.Fatal("no fast-path misses recorded on a fragmented shape")
	}
}

// TestZeroCopySafeToMutateAfterReturn: Exchange with ZeroCopyLocal
// rendezvouses with every borrowing receiver before returning, so a
// caller who overwrites srcLocal the moment Exchange returns cannot
// corrupt the destination.
func TestZeroCopySafeToMutateAfterReturn(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.BlockAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	for round := 0; round < 50; round++ {
		srcLocals := fillByGlobal(src)
		dstLocals := make([][]float64, n)
		comm.Run(m+n, func(c *comm.Comm) {
			lay := Layout{SrcBase: 0, DstBase: m}
			var sl, dl []float64
			if c.Rank() < m {
				sl = srcLocals[c.Rank()]
			} else {
				dl = make([]float64, dst.LocalCount(c.Rank()-m))
			}
			if _, err := xfer(c, s, lay, sl, dl, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			// The contract under test: the lent views are dead the moment
			// Exchange returns.
			for i := range sl {
				sl[i] = -1
			}
			if dl != nil {
				dstLocals[c.Rank()-m] = dl
			}
		})
		verify(t, dst, dstLocals)
		if t.Failed() {
			t.Fatalf("corruption after %d clean rounds", round)
		}
	}
}

// TestZeroCopySelfSendAliased: identity redistribution with srcLocal and
// dstLocal aliased to the same slice. Self-sends are excluded from the
// fast path (a borrowed view over the unpack target would corrupt), so
// this must work with ZeroCopyLocal on, and record no hits.
func TestZeroCopySelfSendAliased(t *testing.T) {
	src := tpl(t, []int{16}, dad.BlockAxis(2))
	s, err := schedule.Build(src, src)
	if err != nil {
		t.Fatal(err)
	}
	locals := fillByGlobal(src)
	before := mZeroCopyHits.Value()
	comm.Run(2, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: 0}
		buf := locals[c.Rank()]
		if _, err := xfer(c, s, lay, buf, buf, 0, TransferOpts{ZeroCopyLocal: true}); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
	})
	verify(t, src, locals)
	if got := mZeroCopyHits.Value() - before; got != 0 {
		t.Fatalf("fast path lent a view on a self-send: %d hits", got)
	}
}

// TestXferMsgCodecBorrowBitIdentical: the borrow-mode encode of a
// transfer message splits into header+payload whose concatenation is
// bit-identical to the single-buffer encode, and the decode views the
// payload in place in the received frame, 8-byte aligned.
func TestXferMsgCodecBorrowBitIdentical(t *testing.T) {
	build := func() *xferMsg {
		m := getMsg()
		m.epoch = 3
		m.kind = dad.Float64
		m.elems = 4
		m.ack = true
		m.have = linear.Set{{Lo: 2, Hi: 6}}
		m.data = bufpool.Get(32)
		for i := range m.data {
			m.data[i] = byte(i * 3)
		}
		addInFlight(len(m.data))
		return m
	}

	e1 := wire.NewEncoder(nil)
	if !encodeXferMsg(e1, build()) {
		t.Fatal("legacy encode refused an *xferMsg")
	}
	legacy := append([]byte(nil), e1.Bytes()...)

	e2 := wire.NewEncoderV(nil)
	if !encodeXferMsg(e2, build()) {
		t.Fatal("borrow encode refused an *xferMsg")
	}
	head, data := e2.Vector()
	if data == nil {
		t.Fatal("borrow-mode encode did not borrow the payload")
	}
	vec := append(append([]byte(nil), head...), data...)
	if !bytes.Equal(legacy, vec) {
		t.Fatalf("borrow encoding differs from legacy\nlegacy % x\nborrow % x", legacy, vec)
	}
	bufpool.Put(data) // ownership passed to us (standing in for the conn)

	// Decoded from a pooled frame, the message views its elements in the
	// frame, aligned, and owns the frame: recycle returns it.
	frames := bufpool.FramesOutstanding()
	realigned := mRecvRealigned.Value()
	frame := bufpool.GetFrame(len(legacy))
	copy(frame, legacy)
	d := wire.NewDecoder(frame)
	v, err := decodeXferMsg(d)
	if err != nil {
		t.Fatal(err)
	}
	m := v.(*xferMsg)
	if m.epoch != 3 || m.kind != dad.Float64 || m.elems != 4 || !m.ack {
		t.Fatalf("decoded fields: %+v", m)
	}
	if len(m.have) != 1 || m.have[0] != (linear.Interval{Lo: 2, Hi: 6}) {
		t.Fatalf("decoded have: %v", m.have)
	}
	if !d.Kept() || !bytes.Equal(m.data, legacy[len(head):]) || &m.data[0] != &frame[len(head)] {
		t.Fatal("decoded payload does not view the frame in place")
	}
	if !alignedFor(elemsOf[float64](m.data, m.elems)) {
		t.Fatal("decoded payload view is not 8-byte aligned")
	}
	recycle(m)
	if got := bufpool.FramesOutstanding() - frames; got != 0 {
		t.Fatalf("%d frames outstanding after recycle", got)
	}

	// A view the wire format did not align (a decoder over an odd offset)
	// is copied out once, counted, and leaves the frame to its creator.
	odd := append([]byte{0}, legacy...)
	d = wire.NewDecoder(odd[1:])
	if v, err = decodeXferMsg(d); err != nil {
		t.Fatal(err)
	}
	m = v.(*xferMsg)
	if d.Kept() || !bytes.Equal(m.data, legacy[len(head):]) || mRecvRealigned.Value()-realigned != 1 {
		t.Fatal("misaligned payload was not copied out exactly once")
	}
	recycle(m)
}

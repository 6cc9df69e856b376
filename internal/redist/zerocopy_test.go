package redist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
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
			t.Errorf("rank %d: results differ bitwise", r)
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

// TestZeroCopyLendsAnyShape: a cyclic destination makes every outgoing
// plan a vector of one-element blocks — a single run, but not a contiguous
// one. The receiver copies through its own pair plan whatever the run
// shape, so every message is still lent (hits, nothing packed), and the
// transfer verifies.
func TestZeroCopyLendsAnyShape(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	hitsBefore, packedBefore := mZeroCopyHits.Value(), mElemsPacked.Value()
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
	if got := mZeroCopyHits.Value() - hitsBefore; got != uint64(s.NumMessages()) {
		t.Fatalf("lent %d messages of a strided shape, want all %d", got, s.NumMessages())
	}
	if got := mElemsPacked.Value() - packedBefore; got != 0 {
		t.Fatalf("packed %d elements of a strided shape, want 0", got)
	}
}

// TestZeroCopySafeToMutateAfterReturn: Run with ZeroCopyLocal
// rendezvouses with every borrowing receiver before returning, so a
// caller who overwrites srcLocal the moment Run returns cannot corrupt
// the destination.
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
// dstLocal aliased to the same slice. A rank whose source overlaps its
// destination lends nothing (a lent view over the unpack target would
// corrupt), so this must work with ZeroCopyLocal on, and record no hits.
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

// TestXferMsgCodecBorrowBitIdentical: the encode of a transfer message
// lends its own payload buffer behind the header, and header ++ payload is
// bit-identical to the reference encoding; the decode views the payload in
// place in the received frame, 8-byte aligned, and a re-encode of that view
// lends a pooled copy of it.
func TestXferMsgCodecBorrowBitIdentical(t *testing.T) {
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	m := getMsg()
	m.epoch = 3
	m.kind = dad.Float64
	m.elems = 4
	m.mark = markAck
	m.data = bufpool.Get(len(payload))
	copy(m.data, payload)
	addInFlight(len(m.data))

	// The reference encoding, spelled out independently of the encoder:
	// epoch, kind, element count, ack flag, then the payload's length,
	// zero padding to an 8-byte offset and its bytes.
	ref := binary.LittleEndian.AppendUint64(nil, 3)
	ref = append(ref, byte(dad.Float64))
	ref = binary.AppendUvarint(ref, 4)
	ref = append(ref, 1)
	ref = binary.AppendUvarint(ref, uint64(len(payload)))
	for len(ref)%8 != 0 {
		ref = append(ref, 0)
	}
	ref = append(ref, payload...)

	lent := m.data
	e := wire.NewEncoder(nil)
	m.PutRemote(e)
	head, data := e.Vector()
	if data == nil || &data[0] != &lent[0] {
		t.Fatal("encode did not lend the message's own payload buffer")
	}
	if got := append(append([]byte(nil), head...), data...); !bytes.Equal(got, ref) {
		t.Fatalf("encoding differs from the reference\nreference % x\nencoded   % x", ref, got)
	}
	bufpool.Put(data) // ownership passed to us (standing in for the conn)

	// Decoded from a pooled frame, the message views its elements in the
	// frame, aligned, and owns the frame.
	frames := bufpool.FramesOutstanding()
	frame := bufpool.GetFrame(len(ref))
	copy(frame, ref)
	d := wire.NewDecoder(frame)
	v, err := decodeXferMsg(d)
	if err != nil {
		t.Fatal(err)
	}
	m = v.(*xferMsg)
	if m.epoch != 3 || m.kind != dad.Float64 || m.elems != 4 || m.mark != markAck {
		t.Fatalf("decoded fields: %+v", m)
	}
	if !d.Kept() || !bytes.Equal(m.data, payload) || &m.data[0] != &frame[len(head)] {
		t.Fatal("decoded payload does not view the frame in place")
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))%8 != 0 {
		t.Fatal("decoded payload view is not 8-byte aligned")
	}

	// Forwarded again, the view is lent as one pooled copy, and the encode
	// returns the frame.
	e.Reset()
	m.PutRemote(e)
	if _, data = e.Vector(); &data[0] == &frame[len(head)] || !bytes.Equal(data, payload) {
		t.Fatal("a received view was not lent as a pooled copy")
	}
	bufpool.Put(data)
	if got := bufpool.FramesOutstanding() - frames; got != 0 {
		t.Fatalf("%d frames outstanding after the re-encode", got)
	}

	// A decoder over an odd offset would view the payload misaligned: the
	// message is rejected as corrupt, and the input stays with its creator.
	odd := append([]byte{0}, ref...)
	d = wire.NewDecoder(odd[1:])
	if _, err = decodeXferMsg(d); !errors.Is(err, wire.ErrCorrupt) || d.Kept() {
		t.Fatalf("misaligned payload: err %v, kept %v; want ErrCorrupt, not kept", err, d.Kept())
	}
}

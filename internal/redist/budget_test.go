package redist

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// Unit coverage of the round decomposition arithmetic: both sides of a
// budgeted transfer derive chunk counts independently from these, so
// their edge cases are protocol invariants.
func TestChunkMath(t *testing.T) {
	cases := []struct {
		budget, esz, wantCap int
	}{
		{1024, 8, 64},
		{1024, 4, 128},
		{16, 8, 1},
		{1, 8, 1},  // degenerate budget: element-at-a-time
		{15, 8, 1}, // budget under two elements: still one element per chunk
		{64, 16, 2},
	}
	for _, c := range cases {
		if got := chunkElemCap(c.budget, c.esz); got != c.wantCap {
			t.Errorf("chunkElemCap(%d, %d) = %d, want %d", c.budget, c.esz, got, c.wantCap)
		}
	}
	if got := chunkCount(0, 64); got != 1 {
		t.Errorf("a zero-element message must travel as exactly one chunk, got %d", got)
	}
	if got := chunkCount(65, 64); got != 2 {
		t.Errorf("chunkCount(65, 64) = %d, want 2", got)
	}
	if got := chunkCount(64, 64); got != 1 {
		t.Errorf("chunkCount(64, 64) = %d, want 1", got)
	}
	if got := nextChunkElems(0, 0, 64); got != 0 {
		t.Errorf("nextChunkElems on an empty message = %d, want 0", got)
	}
	if got := nextChunkElems(65, 64, 64); got != 1 {
		t.Errorf("nextChunkElems tail = %d, want 1", got)
	}
}

func bitsEqualT[T Elem](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		switch x := any(a[i]).(type) {
		case float64:
			if math.Float64bits(x) != math.Float64bits(any(b[i]).(float64)) {
				return false
			}
		case float32:
			if math.Float32bits(x) != math.Float32bits(any(b[i]).(float32)) {
				return false
			}
		default:
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// runBudgetExchangeT runs one schedule-driven transfer with the given
// budget (0 = unbudgeted) across shuffled concurrent ranks and returns
// the destination buffers.
func runBudgetExchangeT[T Elem](t *testing.T, src, dst *dad.Template, conv func(float64) T,
	budget int, fenced bool, order []int) [][]T {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]T, n)
	var mu sync.Mutex
	mem := core.NewMembership(m + n)
	launchShuffled(m+n, order, func(c *comm.Comm) {
		lay := Layout{SrcBase: 0, DstBase: m}
		var sl, dl []T
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]T, dst.LocalCount(c.Rank()-m))
		}
		opts := TransferOpts{MaxBytesInFlight: budget}
		if fenced {
			opts.Membership, opts.PollInterval = mem, time.Millisecond
		}
		out, err := xfer(c, s, lay, sl, dl, 0, opts)
		if fenced && err == nil && dl != nil && !out.Validity.AllValid() {
			t.Errorf("clean budgeted fenced transfer invalidated elements")
		}
		if err != nil {
			t.Errorf("rank %d (budget=%d fenced=%v): %v", c.Rank(), budget, fenced, err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	})
	return dstLocals
}

// runBudgetAcrossWorlds is runBudgetExchangeT for float64 with the source
// cohort in one world and the destination cohort in another, coupled over
// an in-memory transport pipe (crossWorlds): no destination is in-process,
// so every chunk is packed and every packed chunk acknowledged.
func runBudgetAcrossWorlds(t *testing.T, src, dst *dad.Template, budget int) [][]float64 {
	t.Helper()
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	m, n := src.NumProcs(), dst.NumProcs()
	csA, csB := crossWorlds(t, m, n)
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	var wg sync.WaitGroup
	wg.Add(m + n)
	for r := 0; r < m+n; r++ {
		c := csB[r]
		if r < m {
			c = csA[r]
		}
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			var sl, dl []float64
			if r < m {
				sl = srcLocals[r]
			} else {
				dl = make([]float64, dst.LocalCount(r-m))
				dstLocals[r-m] = dl
			}
			if _, err := xfer(c, s, Layout{SrcBase: 0, DstBase: m}, sl, dl, 0, TransferOpts{MaxBytesInFlight: budget}); err != nil {
				t.Errorf("rank %d (budget=%d): %v", r, budget, err)
			}
		}(r, c)
	}
	wg.Wait()
	return dstLocals
}

// checkInProcessLends states what a budgeted transfer does when every
// destination is in-process, beside the same transfer across worlds: the
// same chunks, wantChunks of them, but each lent instead of packed — no
// packed byte resident, no element packed, no acknowledgement — and a
// bit-identical result.
func checkInProcessLends(t *testing.T, src, dst *dad.Template, budget int, wantChunks uint64, want [][]float64) {
	t.Helper()
	ResetPackedBytesHighWater()
	base := PackedBytesHighWater()
	chunks, packed, acks := mChunksSent.Value(), mElemsPacked.Value(), mAcksSent.Value()
	order := rand.New(rand.NewSource(5)).Perm(src.NumProcs() + dst.NumProcs())
	got := runBudgetExchangeT(t, src, dst, func(v float64) float64 { return v }, budget, false, order)
	if d := mChunksSent.Value() - chunks; d != wantChunks {
		t.Errorf("in-process: %d chunks, want %d, as across worlds", d, wantChunks)
	}
	if peak, d := PackedBytesHighWater()-base, mElemsPacked.Value()-packed; peak != 0 || d != 0 {
		t.Errorf("in-process: %d packed bytes resident at peak and %d elements packed, want none", peak, d)
	}
	if d := mAcksSent.Value() - acks; d != 0 {
		t.Errorf("in-process: %d acks, want 0: a lent chunk owes no credit", d)
	}
	for r := range want {
		if !bitsEqual(got[r], want[r]) {
			t.Errorf("in-process: dst rank %d differs from the transfer across worlds", r)
		}
	}
}

// The tentpole differential guarantee: a budgeted transfer fills
// destination buffers bit-identical to the unbudgeted engine, for every
// element kind, fenced and unfenced, across budgets from degenerate
// (one element per chunk) through multi-round to larger-than-transfer.
// Run under -race by `make race`.
func testBudgetDifferential[T Elem](t *testing.T, name string, conv func(float64) T) {
	t.Run(name, func(t *testing.T) {
		src := tpl(t, []int{256}, dad.BlockAxis(2))
		dst := tpl(t, []int{256}, dad.CyclicAxis(2))
		rng := rand.New(rand.NewSource(91))
		ref := runBudgetExchangeT(t, src, dst, conv, 0, false, rng.Perm(4))
		verifyT(t, dst, ref, conv)
		esz := elemSize[T]()
		// 64*esz forces 4 rounds per source rank here: each source has
		// two 64-element ops, the chunk cap is 32 elements and a round
		// holds one chunk.
		budgets := []int{1, 8 * esz, 64 * esz, 1 << 20}
		for _, budget := range budgets {
			for _, fenced := range []bool{false, true} {
				rounds0 := mRoundsSent.Value()
				got := runBudgetExchangeT(t, src, dst, conv, budget, fenced, rng.Perm(4))
				for r := range ref {
					if !bitsEqualT(ref[r], got[r]) {
						t.Fatalf("budget %d fenced=%v: dst rank %d differs from unbudgeted\nwant: %v\ngot:  %v",
							budget, fenced, r, ref[r], got[r])
					}
				}
				if budget == 64*esz {
					if dr := mRoundsSent.Value() - rounds0; dr < 8 {
						t.Fatalf("budget %d: %d rounds across 2 sources, want >= 8 (>= 4 per source)", budget, dr)
					}
				}
			}
		}
	})
}

func TestBudgetedMatchesUnbudgetedExchange(t *testing.T) {
	defer elemLedger(t)()
	testBudgetDifferential[float64](t, "float64", func(v float64) float64 { return v })
	testBudgetDifferential[float32](t, "float32", func(v float64) float32 { return float32(v) })
	testBudgetDifferential[int64](t, "int64", func(v float64) int64 { return int64(v) })
	testBudgetDifferential[int32](t, "int32", func(v float64) int32 { return int32(v) })
	testBudgetDifferential[complex128](t, "complex128", func(v float64) complex128 { return complex(v, -v) })
}

// Linear-path differential: the receiver-driven protocol's replies move
// through the same budgeted rounds, including zero-element replies from
// sources whose owned set misses the destination's needs entirely.
func TestBudgetedMatchesUnbudgetedLinear(t *testing.T) {
	defer elemLedger(t)()
	cases := []struct {
		name     string
		src, dst *dad.Template
	}{
		{"overlap", tpl(t, []int{96}, dad.BlockAxis(2)), tpl(t, []int{96}, dad.CyclicAxis(2))},
		// Block→Block aligned: every cross intersection is empty, so
		// half the replies are zero-element chunks through the splitter.
		{"empty-intersections", tpl(t, []int{64}, dad.BlockAxis(2)), tpl(t, []int{64}, dad.BlockAxis(2))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcLin := schedule.NewRowMajor(tc.src)
			dstLin := schedule.NewRowMajor(tc.dst)
			m, n := tc.src.NumProcs(), tc.dst.NumProcs()
			srcLocals := fillByGlobal(tc.src)
			rng := rand.New(rand.NewSource(17))

			run := func(budget int, fenced bool) [][]float64 {
				got := make([][]float64, n)
				var mu sync.Mutex
				mem := core.NewMembership(m + n)
				launchShuffled(m+n, rng.Perm(m+n), func(c *comm.Comm) {
					lay := Layout{SrcBase: 0, DstBase: m}
					var sl, dl []float64
					if c.Rank() < m {
						sl = srcLocals[c.Rank()]
					} else {
						dl = make([]float64, tc.dst.LocalCount(c.Rank()-m))
					}
					opts := TransferOpts{MaxBytesInFlight: budget}
					if fenced {
						opts.Membership, opts.PollInterval = mem, time.Millisecond
					}
					if _, err := xferLinear(c, srcLin, dstLin, lay, sl, dl, 0, opts); err != nil {
						t.Errorf("rank %d (budget=%d fenced=%v): %v", c.Rank(), budget, fenced, err)
					}
					if dl != nil {
						mu.Lock()
						got[c.Rank()-m] = dl
						mu.Unlock()
					}
				})
				return got
			}

			ref := run(0, false)
			verify(t, tc.dst, ref)
			for _, budget := range []int{1, 16 * 8, 1 << 20} {
				for _, fenced := range []bool{false, true} {
					got := run(budget, fenced)
					for r := range ref {
						if !bitsEqual(ref[r], got[r]) {
							t.Fatalf("budget %d fenced=%v: dst rank %d differs from unbudgeted", budget, fenced, r)
						}
					}
				}
			}
		})
	}
}

// The budget's reason to exist: resident packed bytes stay bounded by
// MaxBytesInFlight per sending rank, measured by the engine's own
// packed-bytes watermark (counted from newMsg until recycle, wherever
// the chunk sits — staged, queued or being unpacked). The destinations
// are in another world, so the chunks are packed; in-process, the same
// chunks are lent and the watermark does not move at all.
func TestBudgetedPeakBytesBounded(t *testing.T) {
	src := tpl(t, []int{1 << 12}, dad.BlockAxis(2))
	dst := tpl(t, []int{1 << 12}, dad.CyclicAxis(2))
	const budget = 1 << 10
	ResetPackedBytesHighWater()
	base := PackedBytesHighWater()
	chunks := mChunksSent.Value()
	got := runBudgetAcrossWorlds(t, src, dst, budget)
	verify(t, dst, got)
	peak := PackedBytesHighWater() - base
	if limit := int64(2 * budget); peak > limit { // two sending ranks
		t.Fatalf("budgeted transfer peaked at %d packed bytes, budget bounds it by %d", peak, limit)
	}
	if peak <= 0 {
		t.Fatalf("watermark did not move (peak %d); accounting broken", peak)
	}
	checkInProcessLends(t, src, dst, budget, mChunksSent.Value()-chunks, got)
}

// The steady-state budgeted path allocates nothing: chunk buffers and
// headers cycle through the same pools as whole messages, acks are
// pooled markers, and the round state lives in the handle. Unlike the
// unbudgeted steady-state harness, ranks must run concurrently (senders
// block on acks), so the workers are persistent goroutines signalled
// over pre-allocated channels and AllocsPerRun measures the whole
// process.
func TestExchangeBudgetedSteadyStateZeroAlloc(t *testing.T) {
	obs.DisableTracing()
	src := tpl(t, []int{1 << 10}, dad.BlockAxis(2))
	dst := tpl(t, []int{1 << 10}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	cs := comm.NewWorld(4).Comms()
	lay := Layout{SrcBase: 0, DstBase: 2}
	const budget = 1 << 10 // 8 chunks per source: several rounds per step
	srcLocals := make([][]float64, 2)
	dstLocals := make([][]float64, 2)
	for r := 0; r < 2; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	start := make([]chan struct{}, 4)
	done := make(chan error, 4)
	for r := 0; r < 4; r++ {
		start[r] = make(chan struct{}, 1)
		go func(r int) {
			var sl, dl []float64
			if r < 2 {
				sl = srcLocals[r]
			} else {
				dl = dstLocals[r-2]
			}
			xt, err := New[float64](cs[r], s, lay, 0, TransferOpts{MaxBytesInFlight: budget})
			for range start[r] {
				if err == nil {
					_, err = xt.Run(sl, dl)
				}
				done <- err
			}
		}(r)
	}
	defer func() {
		for r := range start {
			close(start[r])
		}
	}()
	step := func() {
		for r := 0; r < 4; r++ {
			start[r] <- struct{}{}
		}
		for r := 0; r < 4; r++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
	}
	// Warm until pools, mailbox rings and goroutine stacks reach their
	// steady capacity under concurrent interleavings.
	for i := 0; i < 8; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(20, step)
	if allocs != 0 {
		t.Fatalf("steady-state budgeted Run allocates: %v allocs per transfer step", allocs)
	}
}

// An unbudgeted transfer is the chunked protocol with an infinite budget:
// exactly one data message per planned pair, one round per sending rank,
// and no credit traffic at all. A budgeted one to another world still
// acknowledges every chunk it sends; in-process it lends the same chunks
// and acknowledges none.
func TestUnbudgetedIsOneRoundWithoutAcks(t *testing.T) {
	src := tpl(t, []int{256}, dad.BlockAxis(2))
	dst := tpl(t, []int{256}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	conv := func(v float64) float64 { return v }
	var got [][]float64
	deltas := func(budget int) (msgs, chunks, rounds, acks uint64) {
		m0, c0, r0, a0 := mMsgsSent.Value(), mChunksSent.Value(), mRoundsSent.Value(), mAcksSent.Value()
		if budget == 0 {
			got = runBudgetExchangeT(t, src, dst, conv, budget, false, []int{4, 2, 0, 3, 1})
		} else {
			got = runBudgetAcrossWorlds(t, src, dst, budget)
		}
		verify(t, dst, got)
		return mMsgsSent.Value() - m0, mChunksSent.Value() - c0, mRoundsSent.Value() - r0, mAcksSent.Value() - a0
	}
	msgs, chunks, rounds, acks := deltas(0)
	if want := uint64(s.NumMessages()); msgs != want || chunks != want {
		t.Errorf("unbudgeted: %d messages in %d chunks, want %d of each (one chunk per planned pair)", msgs, chunks, want)
	}
	if want := uint64(src.NumProcs()); rounds != want {
		t.Errorf("unbudgeted: %d rounds, want %d (one per sending rank)", rounds, want)
	}
	if acks != 0 {
		t.Errorf("unbudgeted: %d acks sent, want 0", acks)
	}
	msgs, chunks, rounds, acks = deltas(256)
	if chunks <= uint64(s.NumMessages()) || msgs != chunks || acks != chunks {
		t.Errorf("budgeted: %d messages, %d chunks, %d acks over %d pairs: want several chunks per pair, each one acknowledged",
			msgs, chunks, acks, s.NumMessages())
	}
	if rounds <= uint64(src.NumProcs()) {
		t.Errorf("budgeted: %d rounds, want more than one per sending rank", rounds)
	}
	checkInProcessLends(t, src, dst, 256, chunks, got)
}

// One handle per rank, Run back to back on one tag with skewed ranks and
// no barrier: every step consumes exactly its own messages, bit-identical
// to ExecuteLocalT. Unbudgeted, a rank receives from the next expected
// peer, not from anyone, so source 0 may post every step's messages before
// source 1 posts its first: each destination's mailbox holds source 0's
// messages of all later steps while it waits for source 1's message of
// this one. Budgeted, a rank receives from anyone, so one tag is safe only
// where no step's chunk can land in a slower peer's still-running loop: a
// schedule in which no destination has two sources (source 0 still runs
// every step before source 1 starts). A linearization lowered to a
// schedule follows the same rules.
func TestSkewedBackToBackExchangesShareTag(t *testing.T) {
	const steps = 50
	cases := []struct {
		name     string
		src, dst *dad.Template
		linear   bool
		budget   int
	}{
		{"schedule", tpl(t, []int{96}, dad.BlockAxis(2)), tpl(t, []int{96}, dad.CyclicAxis(2)), false, 0},
		{"schedule-budgeted", tpl(t, []int{96}, dad.BlockAxis(2)), tpl(t, []int{96}, dad.BlockAxis(4)), false, 64},
		{"linear", tpl(t, []int{96}, dad.BlockAxis(2)), tpl(t, []int{96}, dad.CyclicAxis(3)), true, 0},
		{"linear-budgeted", tpl(t, []int{96}, dad.BlockAxis(2)), tpl(t, []int{96}, dad.BlockAxis(4)), true, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := schedule.Build(tc.src, tc.dst)
			if err != nil {
				t.Fatal(err)
			}
			m, n := tc.src.NumProcs(), tc.dst.NumProcs()
			srcs, got := make([][][]float64, steps), make([][][]float64, steps)
			for k := range srcs {
				srcs[k] = fillByGlobal(tc.src)
				for _, local := range srcs[k] {
					for i := range local {
						local[i] += float64(1000 * k) // every step moves its own values
					}
				}
				got[k] = make([][]float64, n)
				for r := range got[k] {
					got[k][r] = make([]float64, tc.dst.LocalCount(r))
				}
			}
			ahead := make(chan struct{})
			comm.Run(m+n, func(c *comm.Comm) {
				r := c.Rank()
				if r == 0 {
					defer close(ahead)
				}
				plan := s
				if tc.linear {
					var err error
					if plan, err = schedule.FromLinear(schedule.NewRowMajor(tc.src), schedule.NewRowMajor(tc.dst)); err != nil {
						t.Error(err)
						return
					}
				}
				xt, err := New[float64](c, plan, Layout{SrcBase: 0, DstBase: m}, 0, TransferOpts{MaxBytesInFlight: tc.budget})
				if err != nil {
					t.Error(err)
					return
				}
				if r == 1 {
					<-ahead // source 0 is a whole run of transfers ahead
				}
				for k := 0; k < steps; k++ {
					if (r == 1 && k%5 == 0) || (r == m+n-1 && k%7 == 0) {
						time.Sleep(time.Millisecond) // jitter on top of the skew
					}
					var sl, dl []float64
					if r < m {
						sl = srcs[k][r]
					} else {
						dl = got[k][r-m]
					}
					if _, err := xt.Run(sl, dl); err != nil {
						t.Errorf("rank %d step %d: %v", r, k, err)
					}
				}
			})
			want := make([][]float64, n)
			for r := range want {
				want[r] = make([]float64, tc.dst.LocalCount(r))
			}
			for k := 0; k < steps; k++ {
				ExecuteLocalT(s, srcs[k], want)
				for r := range want {
					if !bitsEqual(got[k][r], want[r]) {
						t.Fatalf("step %d dst rank %d: a transfer consumed another step's message\ngot:  %v\nwant: %v", k, r, got[k][r], want[r])
					}
				}
			}
		})
	}
}

// A budgeted destination takes chunks from any source as they arrive and
// acknowledges each at once, so a late source costs the punctual one
// nothing: source 1 gets its credit and finishes while source 0 has not
// even entered, and — fenced — nobody goes unanswered long enough to be
// suspected. Waiting on source 0 first (plan order) would leave source 1's
// first round unacknowledged past SuspectAfter and mark a live
// destination down.
func TestBudgetedSlowSourceDoesNotStallOthers(t *testing.T) {
	src := tpl(t, []int{256}, dad.BlockAxis(2))
	dst := tpl(t, []int{256}, dad.BlockAxis(1))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const suspect = 300 * time.Millisecond
	mem := core.NewMembership(3)
	srcLocals := fillByGlobal(src)
	dstLocal := make([]float64, dst.LocalCount(0))
	var src0Entered, src1Done time.Time // written before comm.Run returns
	comm.Run(3, func(c *comm.Comm) {
		fo := TransferOpts{
			Membership:       mem,
			Policy:           FailStrict,
			PollInterval:     2 * time.Millisecond,
			SuspectAfter:     suspect,
			MaxBytesInFlight: 256, // 8 rounds per source
		}
		var sl, dl []float64
		switch c.Rank() {
		case 0:
			time.Sleep(suspect * 6 / 5)
			src0Entered = time.Now()
			sl = srcLocals[0]
		case 1:
			sl = srcLocals[1]
		case 2:
			time.Sleep(suspect * 3 / 5)
			dl = dstLocal
		}
		if _, err := xfer(c, s, Layout{SrcBase: 0, DstBase: 2}, sl, dl, 0, fo); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if c.Rank() == 1 {
			src1Done = time.Now()
		}
	})
	for r := 0; r < 3; r++ {
		if !mem.IsAlive(r) {
			t.Errorf("live rank %d was marked down", r)
		}
	}
	if !src1Done.Before(src0Entered) {
		t.Errorf("source 1 finished %v after source 0 entered: its credit waited on the slow source", src1Done.Sub(src0Entered))
	}
	verify(t, dst, [][]float64{dstLocal})
}

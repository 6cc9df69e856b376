package redist

import (
	"errors"
	"slices"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// Lent chunks whose destination never takes them. A 2→3 migration in a
// 3-rank world, fenced and budgeted, every rank in-process: old-cohort
// ranks 0 and 1 lend their chunks to each other, to themselves and to
// joiner rank 2, which never runs. No ack is owed for a lent chunk, so
// the sources' transfer loops finish at once and their Runs wait only on
// the rendezvous. Rank 2 is silent, so after SuspectAfter the sources mark
// it down and revoke the chunks queued for it instead of waiting forever:
// under FailStrict each returns a typed *core.ErrRankDown naming rank 2,
// under FailRedistribute each returns clean, with rank 2 in its Outcome.
//
// Then rank 2 runs after all, at the migration's prepare epoch — the
// epoch the revoked chunks carry, so they are not discarded as stale. It
// finds each chunk revoked and treats it as lost without reading the
// source: the test overwrites both sources while rank 2 runs (a read
// would be a data race under -race) and rank 2's destination must stay
// untouched. Under FailStrict rank 2 fails typed, naming itself; under
// FailRedistribute it completes with every element invalid.
func TestLentChunksRevokedFromDeadDestination(t *testing.T) {
	for _, policy := range []FailPolicy{FailStrict, FailRedistribute} {
		name := map[FailPolicy]string{FailStrict: "strict", FailRedistribute: "redistribute"}[policy]
		t.Run(name, func(t *testing.T) {
			oldT := tpl(t, []int{96}, dad.BlockCyclicAxis(2, 4))
			newT, err := dad.Reblock(oldT, 3)
			if err != nil {
				t.Fatal(err)
			}
			s, err := schedule.Remap(oldT, newT)
			if err != nil {
				t.Fatal(err)
			}
			mem := core.NewMembership(2)
			rz, err := mem.ProposeResize(3)
			if err != nil {
				t.Fatal(err)
			}
			opts := TransferOpts{Membership: mem, Policy: policy, PollInterval: time.Millisecond,
				SuspectAfter: 20 * time.Millisecond, MaxBytesInFlight: 64, Resize: rz}
			cs := comm.NewWorld(3).Comms()
			srcLocals := fillByGlobal(oldT)
			dstLocals := zerosLike(newT)
			lent := mZeroCopyHits.Value()

			type result struct {
				rank int
				out  *Outcome
				err  error
			}
			done := make(chan result, 3)
			run := func(r int) {
				var sl []float64
				if r < 2 {
					sl = srcLocals[r]
				}
				xt, err := New[float64](cs[r], s, Layout{}, 0, opts)
				var out *Outcome
				if err == nil {
					out, err = xt.Run(sl, dstLocals[r])
				}
				done <- result{r, out, err}
			}
			wait := func() result {
				select {
				case res := <-done:
					return res
				case <-time.After(10 * time.Second):
					t.Fatal("a Run still waits on chunks lent to a dead destination")
					return result{}
				}
			}

			go run(0)
			go run(1)
			for i := 0; i < 2; i++ {
				res := wait()
				var down *core.ErrRankDown
				switch {
				case policy == FailStrict && (!errors.As(res.err, &down) || down.Rank != 2):
					t.Errorf("rank %d: err = %v, want *core.ErrRankDown for rank 2", res.rank, res.err)
				case policy == FailRedistribute && res.err != nil:
					t.Errorf("rank %d: %v", res.rank, res.err)
				case policy == FailRedistribute && !slices.Contains(res.out.Down, 2):
					t.Errorf("rank %d: Outcome.Down = %v, want rank 2 in it", res.rank, res.out.Down)
				}
			}
			if mem.IsAlive(2) {
				t.Fatal("the silent destination was never marked down")
			}
			if got := mZeroCopyHits.Value() - lent; got == 0 {
				t.Fatal("no chunk was lent; the shape is wrong for this test")
			}

			go run(2)
			for _, sl := range srcLocals {
				for i := range sl {
					sl[i] = -1
				}
			}
			res := wait()
			var down *core.ErrRankDown
			switch policy {
			case FailStrict:
				if !errors.As(res.err, &down) || down.Rank != 2 {
					t.Errorf("late rank 2: err = %v, want *core.ErrRankDown naming itself", res.err)
				}
			case FailRedistribute:
				if res.err != nil {
					t.Fatalf("late rank 2: %v", res.err)
				}
				if v := res.out.Validity; v.CountInvalid() != v.Len() {
					t.Errorf("late rank 2: %d of %d elements invalid, want all: every chunk was revoked", v.CountInvalid(), v.Len())
				}
			}
			for i, v := range dstLocals[2] {
				if v != 0 {
					t.Fatalf("late rank 2 wrote dst[%d] = %v from a revoked chunk", i, v)
				}
			}
		})
	}
}

// Every way a transfer lends — unbudgeted with ZeroCopyLocal, budgeted,
// and budgeted and fenced — on a self-redistribution whose every pair is a
// strided vector, self pairs included: each rank overwrites its source the
// moment its Run returns, while the other rank may still be running. The
// rendezvous must have settled every chunk lent out of that source by
// then, so the destinations verify and -race sees no conflicting access.
func TestLentChunksSafeToMutateAfterReturn(t *testing.T) {
	src := tpl(t, []int{96}, dad.BlockAxis(2))
	dst := tpl(t, []int{96}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	mem := core.NewMembership(2)
	for _, tc := range []struct {
		name string
		opts TransferOpts
	}{
		{"zerocopy", TransferOpts{ZeroCopyLocal: true}},
		{"budgeted", TransferOpts{MaxBytesInFlight: 128}},
		{"fenced-budgeted", TransferOpts{MaxBytesInFlight: 128, Membership: mem, PollInterval: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lent := mZeroCopyHits.Value()
			for round := 0; round < 30; round++ {
				srcLocals, dstLocals := fillByGlobal(src), zerosLike(dst)
				comm.Run(2, func(c *comm.Comm) {
					sl := srcLocals[c.Rank()]
					if _, err := xfer(c, s, Layout{}, sl, dstLocals[c.Rank()], 0, tc.opts); err != nil {
						t.Errorf("rank %d: %v", c.Rank(), err)
					}
					for i := range sl {
						sl[i] = -1
					}
				})
				verify(t, dst, dstLocals)
				if t.Failed() {
					t.Fatalf("corruption in round %d", round)
				}
			}
			if got, want := mZeroCopyHits.Value()-lent, uint64(30*s.NumMessages()); got < want {
				t.Fatalf("%d chunks lent over 30 rounds, want at least %d (every pair, self pairs included)", got, want)
			}
		})
	}
}

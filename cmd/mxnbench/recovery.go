package main

import (
	"fmt"
	"sync"
	"time"

	"mxn"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

// runR1 demonstrates crash-rank recovery: an 8-rank block→cyclic
// redistribution loses one source mid-transfer. Heartbeats detect the
// death, the survivors re-plan under FailRedistribute and complete, and
// the destination validity bitmaps record exactly which elements the dead
// rank took with it.
func runR1() error {
	const (
		nSrc, nDst = 4, 4
		nElems     = 4096
		victim     = 1 // source rank 1 == group rank 1
	)
	src, err := mxn.NewTemplate([]int{nElems}, []mxn.AxisDist{mxn.BlockAxis(nSrc)})
	if err != nil {
		return err
	}
	dst, err := mxn.NewTemplate([]int{nElems}, []mxn.AxisDist{mxn.CyclicAxis(nDst)})
	if err != nil {
		return err
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		return err
	}
	cache := schedule.NewCache()
	if _, err := cache.Get(src, dst); err != nil {
		return err
	}

	srcLocals := make([][]float64, nSrc)
	for r := 0; r < nSrc; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		for i := range srcLocals[r] {
			srcLocals[r][i] = float64(r)
		}
	}

	n := nSrc + nDst
	w := mxn.NewWorld(n)
	cs := w.Comms()
	mem := core.NewMembership(n)
	cfg := core.HeartbeatConfig{Interval: 10 * time.Millisecond, MissThreshold: 8}
	peers := make([]int, n)
	for i := range peers {
		peers[i] = i
	}

	outs := make([]*redist.Outcome, nDst)
	durs := make([]time.Duration, nDst)
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for r := 0; r < n; r++ {
		go func(r int, c *comm.Comm) {
			defer wg.Done()
			hb, hbErr := core.StartHeartbeats(c, mem, cfg, peers)
			if hbErr != nil {
				panic(hbErr)
			}
			defer hb.Stop()
			if r == victim {
				time.Sleep(3 * cfg.Interval)
				w.Kill(victim)
				return
			}
			fo := redist.TransferOpts{
				Membership:   mem,
				Policy:       redist.FailRedistribute,
				PollInterval: 2 * time.Millisecond,
				Cache:        cache,
			}
			lay := redist.Layout{SrcBase: 0, DstBase: nSrc}
			var sl, dl []float64
			if r < nSrc {
				sl = srcLocals[r]
			} else {
				dl = make([]float64, dst.LocalCount(r-nSrc))
			}
			xt, xerr := redist.New[float64](c, s, lay, 0, fo)
			var out *redist.Outcome
			if xerr == nil {
				out, xerr = xt.Run(sl, dl)
			}
			mu.Lock()
			if xerr != nil && firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", r, xerr)
			}
			if dl != nil {
				outs[r-nSrc] = out
				durs[r-nSrc] = time.Since(start)
			}
			mu.Unlock()
			// Survivors synchronize; the barrier names the dead rank.
			c.BarrierTimeout(300 * time.Millisecond)
		}(r, cs[r])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	fmt.Printf("source rank %d crashed mid-transfer; membership epoch %d, down=%v\n",
		victim, mem.Epoch(), mem.Down())
	t := &table{header: []string{"dst rank", "elems", "valid", "lost", "down seen", "epoch", "completed"}}
	for j := 0; j < nDst; j++ {
		out := outs[j]
		if out == nil || out.Validity == nil {
			return fmt.Errorf("dst rank %d reported no outcome", j)
		}
		t.add(
			fmt.Sprintf("%d", j),
			fmt.Sprintf("%d", out.Validity.Len()),
			fmt.Sprintf("%d", out.Validity.CountValid()),
			fmt.Sprintf("%d", out.Validity.CountInvalid()),
			fmt.Sprintf("%v", out.Down),
			fmt.Sprintf("%d", out.Epoch),
			durs[j].Round(time.Millisecond).String(),
		)
		if out.Replanned == nil {
			return fmt.Errorf("dst rank %d completed without a re-plan", j)
		}
	}
	t.print()

	// Cross-check: the bitmap losses must sum to exactly the victim's share.
	lost := 0
	for j := 0; j < nDst; j++ {
		lost += outs[j].Validity.CountInvalid()
	}
	want := src.LocalCount(victim)
	fmt.Printf("lost elements: %d (dead rank owned %d); schedule cache entry invalidated: %v\n",
		lost, want, !cache.Invalidate(src, dst))
	if lost != want {
		return fmt.Errorf("validity bitmaps record %d lost elements, dead rank owned %d", lost, want)
	}
	return nil
}

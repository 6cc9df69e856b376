package redist

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// coupleWorlds joins two comm worlds over one session on loopback TCP,
// the path two processes run on, and returns the handle of each group
// rank in its own world: ranks [0, nA) live in the first world, [nA,
// nA+nB) in the second.
func coupleWorlds(b *testing.B, nA, nB int) []*comm.Comm {
	b.Helper()
	cli, srv := tcpSessionPair(b)
	all := make([]int, nA+nB)
	for i := range all {
		all[i] = i
	}
	wa, wb := comm.NewWorld(nA+nB), comm.NewWorld(nA+nB)
	pa, pb := wa.ConnectPeer(cli, all[nA:]), wb.ConnectPeer(srv, all[:nA])
	b.Cleanup(func() {
		pa.Close()
		pb.Close()
		<-pa.Done()
		<-pb.Done()
	})
	a, bb := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	return append(append([]*comm.Comm(nil), a[:nA]...), bb[nA:]...)
}

// rankLoop runs each rank's handles, in order, once per step, each rank
// on a persistent goroutine of its own.
type rankLoop struct {
	start []chan struct{}
	done  chan error
}

func newRankLoop(b *testing.B, hs [][]*Transfer[float64], bufs [][][2][]float64) *rankLoop {
	l := &rankLoop{done: make(chan error, len(hs))}
	for r := range hs {
		ch := make(chan struct{}, 1)
		l.start = append(l.start, ch)
		go func(r int) {
			for range ch {
				var err error
				for k, h := range hs[r] {
					if _, err = h.Run(bufs[r][k][0], bufs[r][k][1]); err != nil {
						break
					}
				}
				l.done <- err
			}
		}(r)
	}
	b.Cleanup(func() {
		for _, ch := range l.start {
			close(ch)
		}
	})
	return l
}

func (l *rankLoop) step(b *testing.B) {
	for _, ch := range l.start {
		ch <- struct{}{}
	}
	var err error
	for range l.start {
		if e := <-l.done; err == nil {
			err = e
		}
	}
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRemoteLendVsPack covers table B23: a 2 MiB message between two
// worlds over a loopback TCP session, lent and placed against packed and
// unpacked, for run lengths around the thresholds (lendMinRun and
// postMinRun). The send half lends the source's runs against packing
// them, the destination unpacking either way; the receive half reads into
// the destination's runs against unpacking them, the source packing
// either way. Each op is one transfer: two 2 MiB messages, and for the
// sender the acknowledgement that gives its views back, so ms/msg is
// about one ping-pong per message. GOMAXPROCS is 1, as in the gated
// benchmark.
//
// The bulk case is the bulk_tcp coupling — 2+2 ranks, 8 MiB there and
// back in 2 MiB messages of 4 KiB runs — at the default thresholds; it
// reports the share of payload bytes lent and placed after warm-up.
func BenchmarkRemoteLendVsPack(b *testing.B) {
	const msg = 2 << 20
	for _, half := range []string{"send", "recv"} {
		for _, run := range []int{256, 1 << 10, 2 << 10, 4 << 10, 16 << 10} {
			for _, lend := range []bool{true, false} {
				path := map[bool]string{true: "lend", false: "pack"}[lend]
				b.Run(fmt.Sprintf("%s/run=%d/%s", half, run, path), func(b *testing.B) {
					// Each call of a benchmark function runs at -cpu's
					// GOMAXPROCS; this family measures at 1.
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
					// Only the measured half may lend or post.
					switch {
					case !lend:
						setMinRuns(b, math.MaxInt, math.MaxInt)
					case half == "send":
						setMinRuns(b, 1, math.MaxInt)
					default:
						setMinRuns(b, math.MaxInt, 1)
					}
					// A [rows, cols] array whole on one rank and split into
					// two column blocks on the other side: the whole side's
					// runs are half a row, run bytes; the split side's are
					// contiguous.
					cols := run / 4
					dims := []int{msg / run, cols}
					whole := tpl(b, dims, dad.BlockAxis(1), dad.CollapsedAxis())
					split := tpl(b, dims, dad.CollapsedAxis(), dad.BlockAxis(2))
					src, dst, nA := whole, split, 1
					if half == "recv" {
						src, dst, nA = split, whole, 2
					}
					s, err := schedule.Build(src, dst)
					if err != nil {
						b.Fatal(err)
					}
					cs := coupleWorlds(b, nA, 3-nA)
					hs := make([][]*Transfer[float64], 3)
					bufs := make([][][2][]float64, 3)
					for r := 0; r < 3; r++ {
						h, err := New[float64](cs[r], s, Layout{SrcBase: 0, DstBase: nA}, 0, TransferOpts{})
						if err != nil {
							b.Fatal(err)
						}
						var buf [2][]float64
						if r < nA {
							buf[0] = make([]float64, src.LocalCount(r))
						} else {
							buf[1] = make([]float64, dst.LocalCount(r-nA))
						}
						hs[r], bufs[r] = []*Transfer[float64]{h}, [][2][]float64{buf}
					}
					l := newRankLoop(b, hs, bufs)
					for i := 0; i < 3; i++ {
						l.step(b) // warm the pools and postings
					}
					b.SetBytes(2 * msg)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						l.step(b)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(2*b.N), "ms/msg")
				})
			}
		}
	}
	b.Run("bulk", func(b *testing.B) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		const n = 2
		dims := []int{1024, 1024}
		rows := tpl(b, dims, dad.BlockAxis(n), dad.CollapsedAxis())
		cols := tpl(b, dims, dad.CollapsedAxis(), dad.BlockAxis(n))
		fwd, err := schedule.Build(rows, cols)
		if err != nil {
			b.Fatal(err)
		}
		rev, err := schedule.Build(cols, rows)
		if err != nil {
			b.Fatal(err)
		}
		cs := coupleWorlds(b, n, n)
		hs := make([][]*Transfer[float64], 2*n)
		bufs := make([][][2][]float64, 2*n)
		for r := 0; r < 2*n; r++ {
			f, err := New[float64](cs[r], fwd, Layout{SrcBase: 0, DstBase: n}, 0, TransferOpts{})
			if err != nil {
				b.Fatal(err)
			}
			k, err := New[float64](cs[r], rev, Layout{SrcBase: n, DstBase: 0}, 1, TransferOpts{})
			if err != nil {
				b.Fatal(err)
			}
			hs[r] = []*Transfer[float64]{f, k}
			if r < n {
				a, back := make([]float64, rows.LocalCount(r)), make([]float64, rows.LocalCount(r))
				bufs[r] = [][2][]float64{{a, nil}, {nil, back}}
			} else {
				d := make([]float64, cols.LocalCount(r-n))
				bufs[r] = [][2][]float64{{nil, d}, {d, nil}}
			}
		}
		l := newRankLoop(b, hs, bufs)
		for i := 0; i < 3; i++ {
			l.step(b)
		}
		lent0, placed0 := counterValue("redist.remote_bytes_lent"), counterValue("wire.bytes_placed")
		b.SetBytes(int64(2 * fwd.TotalElems() * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.step(b)
		}
		moved := float64(b.N * 2 * fwd.TotalElems() * 8)
		b.ReportMetric(100*float64(counterValue("redist.remote_bytes_lent")-lent0)/moved, "lent_pct")
		b.ReportMetric(100*float64(counterValue("wire.bytes_placed")-placed0)/moved, "placed_pct")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(4*b.N), "ms/msg")
	})
}

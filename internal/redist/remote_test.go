package redist

import (
	"sync"
	"testing"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/transport"
)

// crossWorlds couples two worlds of m+n ranks over an in-memory pipe:
// the source cohort [0,m) is local to world A, the destination cohort
// [m,m+n) local to world B. Returns the shared-group handles each side
// uses for its local ranks.
func crossWorlds(t *testing.T, m, n int) (csA, csB []*comm.Comm) {
	t.Helper()
	total := m + n
	wa := comm.NewWorld(total)
	wb := comm.NewWorld(total)
	a, b := transport.Pipe()
	var dstRanks, srcRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < m {
			srcRanks = append(srcRanks, r)
		} else {
			dstRanks = append(dstRanks, r)
		}
	}
	pa := wa.ConnectPeer(a, dstRanks)
	pb := wb.ConnectPeer(b, srcRanks)
	t.Cleanup(func() { pa.Close(); pb.Close() })
	return wa.SharedGroup(1, all), wb.SharedGroup(1, all)
}

// runCrossWorldExchange performs one transfer with every source rank in
// one world and every destination rank in another, so every data message
// (and, in the budgeted/linear variants, every request and credit)
// crosses the ConnectPeer link through the codecs in remote.go.
func runCrossWorldExchange(t *testing.T, linearMode bool, budget int) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	const m, n = 2, 3
	var s *schedule.Schedule
	if !linearMode {
		var err error
		s, err = schedule.Build(src, dst)
		if err != nil {
			t.Fatal(err)
		}
	}
	csA, csB := crossWorlds(t, m, n)
	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	lay := Layout{SrcBase: 0, DstBase: m}

	var wg sync.WaitGroup
	var mu sync.Mutex
	body := func(c *comm.Comm) {
		defer wg.Done()
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		var err error
		opts := TransferOpts{MaxBytesInFlight: budget}
		if linearMode {
			_, err = xferLinear(c, schedule.NewRowMajor(src), schedule.NewRowMajor(dst), lay, sl, dl, 0, opts)
		} else {
			_, err = xfer(c, s, lay, sl, dl, 0, opts)
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	}
	wg.Add(m + n)
	for r := 0; r < m; r++ {
		go body(csA[r])
	}
	for r := m; r < m+n; r++ {
		go body(csB[r])
	}
	wg.Wait()
	verify(t, dst, dstLocals)
}

func TestExchangeAcrossConnectedWorlds(t *testing.T) {
	runCrossWorldExchange(t, false, 0)
}

func TestExchangeAcrossConnectedWorldsBudgeted(t *testing.T) {
	// A small budget forces chunking, so credits (ack messages) flow
	// destination-world → source-world through the codec too.
	runCrossWorldExchange(t, false, 64)
}

func TestLinearExchangeAcrossConnectedWorlds(t *testing.T) {
	// A linearization lowered to a schedule crosses the connection as a
	// built schedule does.
	runCrossWorldExchange(t, true, 0)
}

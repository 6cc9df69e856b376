package redist

import (
	"sync"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/faultconn"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// The wire-path differential: a cross-world exchange executed over real
// TCP sessions, every payload lent to the connection and sent
// scatter-gather, must produce destinations bit-identical to
// ExecuteLocalT of the same schedule, while the physical links flap.

func wireCfg() session.Config {
	return session.Config{
		MaxAttempts:      50,
		MaxElapsed:       30 * time.Second,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		HandshakeTimeout: 5 * time.Second,
	}
}

// flappingSessionPair establishes one session over loopback TCP whose
// server-side physical conns die after flapAfter messages, forcing
// resume-replay traffic through whichever wire path is under test.
func flappingSessionPair(t *testing.T, flapAfter int) (cli, srv transport.Conn) {
	t.Helper()
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faultconn.WrapListener(raw, faultconn.Scenario{Seed: 42, FlapAfter: flapAfter})
	lst := session.WrapListener(flaky, wireCfg())
	t.Cleanup(func() { lst.Close() })

	type acc struct {
		c   transport.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := lst.Accept()
		ch <- acc{c, err}
	}()
	c, err := session.Dial("tcp", lst.Addr(), wireCfg())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	return c, a.c
}

// localReferenceT is ExecuteLocalT of s over srcLocals: the in-process
// result a transfer over any connection must reproduce bit for bit.
func localReferenceT[T Elem](s *schedule.Schedule, dst *dad.Template, srcLocals [][]T) [][]T {
	want := make([][]T, dst.NumProcs())
	for r := range want {
		want[r] = make([]T, dst.LocalCount(r))
	}
	ExecuteLocalT(s, srcLocals, want)
	return want
}

// runWireExchangeT performs the remote_test.go cross-world exchange over
// a flapping TCP session and checks it against localReferenceT.
func runWireExchangeT[T Elem](t *testing.T, conv func(float64) T, budget int) {
	t.Helper()
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	// Flap after 5 messages: one exchange crosses the link with ~6 data
	// messages plus acks, so every physical conn dies mid-transfer and
	// the session replays borrowed payloads over the fresh link.
	cli, srv := flappingSessionPair(t, 5)

	total := m + n
	wa := comm.NewWorld(total)
	wb := comm.NewWorld(total)
	var srcRanks, dstRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < m {
			srcRanks = append(srcRanks, r)
		} else {
			dstRanks = append(dstRanks, r)
		}
	}
	pa := wa.ConnectPeer(cli, dstRanks)
	pb := wb.ConnectPeer(srv, srcRanks)
	t.Cleanup(func() { pa.Close(); pb.Close(); cli.Close(); srv.Close() })
	csA := wa.SharedGroup(1, all)
	csB := wb.SharedGroup(1, all)

	srcLocals := fillByGlobalT(src, conv)
	dstLocals := make([][]T, n)
	lay := Layout{SrcBase: 0, DstBase: m}

	var wg sync.WaitGroup
	var mu sync.Mutex
	const rounds = 4
	body := func(c *comm.Comm) {
		defer wg.Done()
		var sl, dl []T
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]T, dst.LocalCount(c.Rank()-m))
		}
		// Several rounds over one session accumulate enough traffic to
		// flap the link repeatedly. Distinct base tags per round keep
		// back-to-back budgeted transfers separated (see TransferOpts).
		for round := 0; round < rounds; round++ {
			// ZeroCopyLocal stays on: every destination here is remote, so
			// the fast path must decline and copy — part of the contract.
			opts := TransferOpts{MaxBytesInFlight: budget, ZeroCopyLocal: true}
			if _, err := xfer(c, s, lay, sl, dl, round*8, opts); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
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
	verifyT(t, dst, dstLocals, conv)
	sameLocals(t, localReferenceT(s, dst, srcLocals), dstLocals)
}

// TestWirePathVectoredMatchesLegacyOverTCP: every element kind, budgeted
// and unbudgeted, over flapping TCP sessions, matches ExecuteLocalT.
func TestWirePathVectoredMatchesLegacyOverTCP(t *testing.T) {
	for _, budget := range []int{0, 64} {
		name := map[int]string{0: "unbudgeted", 64: "budgeted"}[budget]
		t.Run("float64/"+name, func(t *testing.T) {
			runWireExchangeT(t, func(v float64) float64 { return v }, budget)
		})
		t.Run("float32/"+name, func(t *testing.T) {
			runWireExchangeT(t, func(v float64) float32 { return float32(v) }, budget)
		})
		t.Run("int64/"+name, func(t *testing.T) {
			runWireExchangeT(t, func(v float64) int64 { return int64(v) }, budget)
		})
		t.Run("int32/"+name, func(t *testing.T) {
			runWireExchangeT(t, func(v float64) int32 { return int32(v) }, budget)
		})
		t.Run("complex128/"+name, func(t *testing.T) {
			runWireExchangeT(t, func(v float64) complex128 { return complex(v, -v) }, budget)
		})
	}
}

// TestWirePathFencedOverTCP: the epoch-fenced protocol rides the lent,
// scatter-gather path over flapping links and matches ExecuteLocalT
// bit-identically, with nobody marked down.
func TestWirePathFencedOverTCP(t *testing.T) {
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	cli, srv := flappingSessionPair(t, 5)
	total := m + n
	wa := comm.NewWorld(total)
	wb := comm.NewWorld(total)
	var srcRanks, dstRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < m {
			srcRanks = append(srcRanks, r)
		} else {
			dstRanks = append(dstRanks, r)
		}
	}
	pa := wa.ConnectPeer(cli, dstRanks)
	pb := wb.ConnectPeer(srv, srcRanks)
	t.Cleanup(func() { pa.Close(); pb.Close(); cli.Close(); srv.Close() })
	csA := wa.SharedGroup(1, all)
	csB := wb.SharedGroup(1, all)
	memA := core.NewMembership(total)
	memB := core.NewMembership(total)

	srcLocals := fillByGlobal(src)
	dstLocals := make([][]float64, n)
	lay := Layout{SrcBase: 0, DstBase: m}
	var wg sync.WaitGroup
	var mu sync.Mutex
	body := func(c *comm.Comm, mem *core.Membership) {
		defer wg.Done()
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		fo := TransferOpts{Membership: mem, Policy: FailStrict, PollInterval: time.Millisecond}
		out, err := xfer(c, s, lay, sl, dl, 0, fo)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		} else if len(out.Down) != 0 {
			t.Errorf("rank %d: flaps surfaced as deaths: %v", c.Rank(), out.Down)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	}
	wg.Add(total)
	for r := 0; r < m; r++ {
		go body(csA[r], memA)
	}
	for r := m; r < total; r++ {
		go body(csB[r], memB)
	}
	wg.Wait()
	verify(t, dst, dstLocals)
	sameLocals(t, localReferenceT(s, dst, srcLocals), dstLocals)
}

// TestWirePathPoolBalancedAfterSessionExchange: after a vectored
// exchange over a flapping session finishes and the sessions close,
// every borrowed payload is back in the pool — the end-to-end leak
// check for the ownership handoff chain engine → comm → session.
func TestWirePathPoolBalancedAfterSessionExchange(t *testing.T) {
	baseline := bufpool.Outstanding()
	src := tpl(t, []int{24}, dad.BlockAxis(2))
	dst := tpl(t, []int{24}, dad.CyclicAxis(3))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	const m, n = 2, 3
	cli, srv := flappingSessionPair(t, 5)
	total := m + n
	wa := comm.NewWorld(total)
	wb := comm.NewWorld(total)
	var srcRanks, dstRanks, all []int
	for r := 0; r < total; r++ {
		all = append(all, r)
		if r < m {
			srcRanks = append(srcRanks, r)
		} else {
			dstRanks = append(dstRanks, r)
		}
	}
	pa := wa.ConnectPeer(cli, dstRanks)
	pb := wb.ConnectPeer(srv, srcRanks)
	csA := wa.SharedGroup(1, all)
	csB := wb.SharedGroup(1, all)

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
		for round := 0; round < 3; round++ {
			if _, err := xfer(c, s, lay, sl, dl, round*8, TransferOpts{}); err != nil {
				t.Errorf("rank %d round %d: %v", c.Rank(), round, err)
				return
			}
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	}
	wg.Add(total)
	for r := 0; r < m; r++ {
		go body(csA[r])
	}
	for r := m; r < total; r++ {
		go body(csB[r])
	}
	wg.Wait()
	verify(t, dst, dstLocals)

	// Wind everything down: acks are asynchronous, so the pool drains on
	// session close at the latest.
	pa.Close()
	pb.Close()
	cli.Close()
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if d := bufpool.Outstanding() - baseline; d <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bufpool outstanding: %+d vs baseline after teardown", bufpool.Outstanding()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

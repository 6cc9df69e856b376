// Package chaosnet soaks the full networked stack — comm worlds coupled
// by ConnectPeer, over internal/session's resumable connections, over
// faultconn-injected physical links, over real TCP — and asserts the
// paper-level guarantees hold under link chaos:
//
//   - an epoch-fenced redistribution whose physical link flaps
//     mid-transfer completes bit-identically, with no rank ever marked
//     down (the session layer absorbs every outage);
//   - PRMI invocations over a flapping link execute exactly once — no
//     call lost to a blackholed frame, none duplicated by a replay;
//   - when an outage outlives the session's redial budget the circuit
//     opens with a typed session.ErrPeerLost, the bound ranks die, the
//     heartbeat detector converts that into membership changes, and the
//     fenced transfer policies resolve it — FailStrict with a typed
//     abort, FailRedistribute with a validity bitmap — instead of
//     hanging.
//
// Run via `make chaos-net` (or any -run Chaos matcher) under -race.
package chaosnet

import (
	"context"
	"errors"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

// watchdog aborts a wedged soak with a metrics snapshot plus all
// goroutine stacks, so a CI hang is diagnosable from the log instead of
// dying as a bare test-binary timeout. Returns a disarm func to defer.
func watchdog(t *testing.T, limit time.Duration) func() {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(limit):
			obs.Default().WriteText(os.Stderr)
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			os.Stderr.Write(buf)
			panic("chaosnet: " + t.Name() + " wedged past " + limit.String())
		}
	}()
	return func() { close(done) }
}

func fastCfg() session.Config {
	return session.Config{
		MaxAttempts:      50,
		MaxElapsed:       30 * time.Second,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       10 * time.Millisecond,
		HandshakeTimeout: 5 * time.Second,
	}
}

// flappingListener stacks the chaos topology's server side: TCP, each
// accepted physical conn rigged to drop dead after flapAfter messages,
// sessions resumed across the flaps.
func flappingListener(t *testing.T, flapAfter int) *session.Listener {
	t.Helper()
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := faultconn.WrapListener(raw, faultconn.Scenario{Seed: 42, FlapAfter: flapAfter})
	lst := session.WrapListener(flaky, fastCfg())
	t.Cleanup(func() { lst.Close() })
	return lst
}

// sessionPair dials lst and returns both ends of one established session.
func sessionPair(t *testing.T, lst *session.Listener) (client, server transport.Conn) {
	t.Helper()
	type acc struct {
		c   transport.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := lst.Accept()
		ch <- acc{c, err}
	}()
	cli, err := session.Dial("tcp", lst.Addr(), fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	return cli, srv.c
}

// fingerprint/fill/check mirror the redist test-suite convention: every
// global index owns a unique value, so any loss, duplication, or
// misrouting across reconnects breaks bit-identity.
func fingerprint(i int) float64 { return float64(i)*131 + 7 }

// fencedOnce builds a rank's transfer handle and runs it once: every
// transfer here has its own tag or options.
func fencedOnce(c *comm.Comm, s *schedule.Schedule, lay redist.Layout, src, dst []float64, tag int,
	opts redist.TransferOpts) (*redist.Outcome, error) {
	xt, err := redist.New[float64](c, s, lay, tag, opts)
	if err != nil {
		return nil, err
	}
	return xt.Run(src, dst)
}

// TestChaosNetFencedExchangeOverFlaps runs repeated epoch-fenced
// exchanges between a source cohort and a destination cohort living in
// different worlds, while every physical connection under the session
// dies after a fixed message count. Every round must come back
// bit-identical with nobody marked down; odd rounds use the
// memory-bounded chunked protocol so credits flap too.
func TestChaosNetFencedExchangeOverFlaps(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	const m, n, elems, rounds = 2, 3, 48, 6
	src, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.BlockAxis(m)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.CyclicAxis(n)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	lst := flappingListener(t, 25)
	cli, srv := sessionPair(t, lst)

	total := m + n
	wa := comm.NewWorld(total) // sources local, owns the dialing side
	wb := comm.NewWorld(total) // destinations local
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
	t.Cleanup(func() { pa.Close(); pb.Close() })
	csA := wa.SharedGroup(1, all)
	csB := wb.SharedGroup(1, all)

	// Each side fences against its own all-alive membership: the soak's
	// claim is that flaps never surface as deaths.
	memA := core.NewMembership(total)
	memB := core.NewMembership(total)

	srcLocals := make([][]float64, m)
	for r := 0; r < m; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
	}
	for i := 0; i < elems; i++ {
		r := src.OwnerOf([]int{i})
		srcLocals[r][src.LocalOffset(r, []int{i})] = fingerprint(i)
	}

	lay := redist.Layout{SrcBase: 0, DstBase: m}
	var wg sync.WaitGroup
	var mu sync.Mutex
	dstLocals := make([][][]float64, rounds)
	for e := range dstLocals {
		dstLocals[e] = make([][]float64, n)
	}
	body := func(c *comm.Comm, mem *core.Membership) {
		defer wg.Done()
		for e := 0; e < rounds; e++ {
			opts := redist.TransferOpts{
				Membership:   mem,
				Policy:       redist.FailStrict,
				PollInterval: time.Millisecond,
			}
			if e%2 == 1 {
				opts.MaxBytesInFlight = 128
			}
			var sl, dl []float64
			if c.Rank() < m {
				sl = srcLocals[c.Rank()]
			} else {
				dl = make([]float64, dst.LocalCount(c.Rank()-m))
			}
			// Distinct baseTag per round: a tag identifies one transfer.
			// The budgeted chunk/ack protocol multiplexes AnySource under
			// its data tag, so with no barrier between rounds a source that
			// finishes a fire-and-forget round can land next-round messages
			// inside a slower peer's still-running loop if the tag repeats.
			out, err := fencedOnce(c, s, lay, sl, dl, e*4, opts)
			if err != nil {
				t.Errorf("round %d rank %d: %v", e, c.Rank(), err)
				return
			}
			if len(out.Down) != 0 {
				t.Errorf("round %d rank %d: flap surfaced as deaths %v", e, c.Rank(), out.Down)
				return
			}
			if dl != nil {
				mu.Lock()
				dstLocals[e][c.Rank()-m] = dl
				mu.Unlock()
			}
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

	for e := 0; e < rounds; e++ {
		for i := 0; i < elems; i++ {
			r := dst.OwnerOf([]int{i})
			got := dstLocals[e][r][dst.LocalOffset(r, []int{i})]
			if got != fingerprint(i) {
				t.Fatalf("round %d index %d on dst rank %d: got %v, want %v", e, i, r, got, fingerprint(i))
			}
		}
	}
	if memA.Epoch() != 1 || memB.Epoch() != 1 {
		t.Fatalf("membership changed under pure link chaos: epochs %d/%d", memA.Epoch(), memB.Epoch())
	}
}

// TestChaosNetPRMIExactlyOnceOverFlaps drives independent PRMI calls
// through a session whose physical links keep dying. The session's
// sequence numbers and replay buffer must deliver every invocation
// exactly once: the callee-side execution counter equals the number of
// calls, and every caller sees its own argument echoed back.
func TestChaosNetPRMIExactlyOnceOverFlaps(t *testing.T) {
	const calls = 120
	pkg, err := sidl.Parse(`package p; interface I { independent double tally(in double x); }`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("I")

	lst := flappingListener(t, 15)
	cli, srv := sessionPair(t, lst)

	var executed atomic.Int64
	serveErr := make(chan error, 1)
	go func() {
		ep := prmi.NewEndpoint(iface, prmi.NewConnLink([]transport.Conn{srv}, 0), 0, 1, 1)
		ep.Handle("tally", func(in *prmi.Incoming, out *prmi.Outgoing) error {
			executed.Add(1)
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		})
		serveErr <- ep.Serve()
	}()

	port := prmi.NewCallerPort(iface, prmi.NewConnLink([]transport.Conn{cli}, 0), 0, 1, prmi.Eager)
	for k := 0; k < calls; k++ {
		res, err := port.CallIndependent(0, "tally", prmi.Simple("x", float64(k)))
		if err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		if res.Return != float64(k)*2 {
			t.Fatalf("call %d: returned %v, want %v", k, res.Return, float64(k)*2)
		}
	}
	if err := port.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if got := executed.Load(); got != calls {
		t.Fatalf("callee executed %d invocations, want exactly %d", got, calls)
	}
}

// TestChaosNetBudgetExhaustionResolvesTyped kills the network for good:
// the session's redial budget drains, the circuit opens with a typed
// ErrPeerLost, ConnectPeer kills the bound ranks, the heartbeat failure
// detectors convert the silence into membership changes on both sides,
// and one fenced exchange later the source cohort (FailStrict) gets a
// typed *core.ErrRankDown while the destination cohort (FailRedistribute)
// completes with every lost element recorded in the validity bitmap.
// The test itself is the no-hang assertion: every rank resolves.
func TestChaosNetBudgetExhaustionResolvesTyped(t *testing.T) {
	const m, n, elems = 2, 3, 48
	src, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.BlockAxis(m)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.CyclicAxis(n)})
	if err != nil {
		t.Fatal(err)
	}
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lst := session.WrapListener(raw, fastCfg())
	t.Cleanup(func() { lst.Close() })

	// Track the live physical conn so the outage can sever it, and give
	// the client a tiny budget so exhaustion is quick.
	var dialMu sync.Mutex
	var lastRaw transport.Conn
	cliCfg := fastCfg()
	cliCfg.MaxAttempts = 3
	cliCfg.MaxElapsed = 2 * time.Second
	dial := func(ctx context.Context) (transport.Conn, error) {
		c, err := transport.DialContext(ctx, "tcp", lst.Addr())
		if err != nil {
			return nil, err
		}
		dialMu.Lock()
		lastRaw = c
		dialMu.Unlock()
		return c, nil
	}
	accCh := make(chan transport.Conn, 1)
	go func() {
		c, err := lst.Accept()
		if err != nil {
			return
		}
		accCh <- c
	}()
	cli, err := session.NewConn(dial, cliCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accCh

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
	t.Cleanup(func() { pa.Close(); pb.Close() })
	csA := wa.SharedGroup(1, all)
	csB := wb.SharedGroup(1, all)

	// Failure detectors: each local rank probes the remote cohort. The
	// heartbeat pings cross the wire through the registered codec; the
	// probers turn the post-exhaustion silence into MarkDown calls.
	memA := core.NewMembership(total)
	memB := core.NewMembership(total)
	hbCfg := core.HeartbeatConfig{Interval: 10 * time.Millisecond, MissThreshold: 3}
	var hbs []*core.Heartbeater
	for r := 0; r < m; r++ {
		hb, err := core.StartHeartbeats(csA[r], memA, hbCfg, dstRanks)
		if err != nil {
			t.Fatal(err)
		}
		hbs = append(hbs, hb)
	}
	for r := m; r < total; r++ {
		hb, err := core.StartHeartbeats(csB[r], memB, hbCfg, srcRanks)
		if err != nil {
			t.Fatal(err)
		}
		hbs = append(hbs, hb)
	}
	t.Cleanup(func() {
		for _, hb := range hbs {
			hb.Stop()
		}
	})

	srcLocals := make([][]float64, m)
	for r := 0; r < m; r++ {
		srcLocals[r] = make([]float64, src.LocalCount(r))
	}
	for i := 0; i < elems; i++ {
		r := src.OwnerOf([]int{i})
		srcLocals[r][src.LocalOffset(r, []int{i})] = fingerprint(i)
	}
	lay := redist.Layout{SrcBase: 0, DstBase: m}

	// Phase 1: a clean exchange proves the stack healthy before the kill.
	runRound := func(tag int, policyA, policyB redist.FailPolicy) (errsA []error, outsB []*redist.Outcome, errsB []error) {
		var wg sync.WaitGroup
		var mu sync.Mutex
		errsA = make([]error, m)
		errsB = make([]error, n)
		outsB = make([]*redist.Outcome, n)
		wg.Add(total)
		for r := 0; r < m; r++ {
			go func(r int) {
				defer wg.Done()
				opts := redist.TransferOpts{Membership: memA, Policy: policyA, PollInterval: time.Millisecond}
				_, err := fencedOnce(csA[r], s, lay, srcLocals[r], nil, tag, opts)
				mu.Lock()
				errsA[r] = err
				mu.Unlock()
			}(r)
		}
		for r := m; r < total; r++ {
			go func(r int) {
				defer wg.Done()
				opts := redist.TransferOpts{Membership: memB, Policy: policyB, PollInterval: time.Millisecond}
				dl := make([]float64, dst.LocalCount(r-m))
				out, err := fencedOnce(csB[r], s, lay, nil, dl, tag, opts)
				mu.Lock()
				outsB[r-m] = out
				errsB[r-m] = err
				mu.Unlock()
			}(r)
		}
		wg.Wait()
		return errsA, outsB, errsB
	}
	errsA, _, errsB := runRound(0, redist.FailStrict, redist.FailStrict)
	for r, err := range append(append([]error{}, errsA...), errsB...) {
		if err != nil {
			t.Fatalf("clean round rank %d: %v", r, err)
		}
	}

	// Phase 2: the network goes away for good. Closing the listener
	// refuses every redial; severing the live conn starts the outage.
	lst.Close()
	dialMu.Lock()
	lastRaw.Close()
	dialMu.Unlock()

	// The client session must exhaust its budget and open the circuit
	// with the typed error; ConnectPeer reacts by killing bound ranks.
	select {
	case <-pa.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("client peer binding never tore down after budget exhaustion")
	}
	if err := pa.Err(); !errors.Is(err, session.ErrPeerLost) {
		t.Fatalf("client peer error = %v, want session.ErrPeerLost", err)
	}
	var pl *session.PeerLostError
	if err := pa.Err(); !errors.As(err, &pl) || pl.Attempts == 0 {
		t.Fatalf("peer-lost detail missing: %v", pa.Err())
	}
	select {
	case <-pb.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("server peer binding never tore down")
	}

	// The heartbeat detectors must declare the remote cohorts dead.
	waitDown := func(mem *core.Membership, ranks []int) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			down := 0
			for _, r := range ranks {
				if !mem.IsAlive(r) {
					down++
				}
			}
			if down == len(ranks) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("heartbeats never marked ranks %v down", ranks)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitDown(memA, dstRanks)
	waitDown(memB, srcRanks)

	// Phase 3: both policies resolve, typed, with no hang.
	errsA, outsB, errsB := runRound(10, redist.FailStrict, redist.FailRedistribute)
	for r, err := range errsA {
		var down *core.ErrRankDown
		if !errors.As(err, &down) {
			t.Fatalf("FailStrict source %d: err = %v, want *core.ErrRankDown", r, err)
		}
	}
	for r, err := range errsB {
		if err != nil {
			t.Fatalf("FailRedistribute destination %d: %v", r, err)
		}
		out := outsB[r]
		if out.Validity == nil || out.Validity.CountValid() != 0 {
			t.Fatalf("FailRedistribute destination %d: lost elements not recorded (validity %v)", r, out.Validity)
		}
		if len(out.Down) == 0 {
			t.Fatalf("FailRedistribute destination %d: outcome lists no dead ranks", r)
		}
	}
}

// TestChaosNetFencedLongRunsOverFlaps is the fenced soak in the shape
// where nothing is packed: 256 KiB messages of 2 KiB runs there and back,
// so every chunk is lent as views of its source and every receive on the
// dialing side — whose physical conns are plain TCP — is posted and read
// straight into the destination, while the listener's physical conns die
// every few frames. Flaps tear lent frames, which are replayed from the
// same views, and placed ones, whose postings spoil and whose replays are
// unpacked; every round still comes back bit-identical, with nobody
// marked down.
func TestChaosNetFencedLongRunsOverFlaps(t *testing.T) {
	defer watchdog(t, 60*time.Second)()
	const n, rounds = 2, 8
	dims := []int{256, 512}
	rowsT, err := dad.NewTemplate(dims, []dad.AxisDist{dad.BlockAxis(n), dad.CollapsedAxis()})
	if err != nil {
		t.Fatal(err)
	}
	colsT, err := dad.NewTemplate(dims, []dad.AxisDist{dad.CollapsedAxis(), dad.BlockAxis(n)})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := schedule.Build(rowsT, colsT)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := schedule.Build(colsT, rowsT)
	if err != nil {
		t.Fatal(err)
	}

	lst := flappingListener(t, 7)
	cli, srv := sessionPair(t, lst)
	all := []int{0, 1, 2, 3}
	wa, wb := comm.NewWorld(2*n), comm.NewWorld(2*n)
	pa, pb := wa.ConnectPeer(cli, all[n:]), wb.ConnectPeer(srv, all[:n])
	t.Cleanup(func() { pa.Close(); pb.Close() })
	csA, csB := wa.SharedGroup(1, all), wb.SharedGroup(1, all)
	memA, memB := core.NewMembership(2*n), core.NewMembership(2*n)

	src := make([][]float64, n)
	for r := range src {
		src[r] = make([]float64, rowsT.LocalCount(r))
		for i := range src[r] {
			src[r][i] = fingerprint(r<<20 + i)
		}
	}
	lent, placed := obs.Default().Counter("redist.remote_bytes_lent").Value(), obs.Default().Counter("wire.bytes_placed").Value()
	reconnects := obs.Default().Counter("session.reconnects").Value()
	var wg sync.WaitGroup
	body := func(c *comm.Comm, mem *core.Membership) {
		defer wg.Done()
		opts := redist.TransferOpts{Membership: mem, Policy: redist.FailStrict, PollInterval: time.Millisecond}
		r := c.Rank()
		mid := make([]float64, colsT.LocalCount(r%n))
		back := make([]float64, rowsT.LocalCount(r%n))
		for e := 0; e < rounds; e++ {
			var err error
			if r < n {
				if _, err = fencedOnce(c, fwd, redist.Layout{SrcBase: 0, DstBase: n}, src[r], nil, 2*e, opts); err == nil {
					_, err = fencedOnce(c, rev, redist.Layout{SrcBase: n, DstBase: 0}, nil, back, 2*e+1, opts)
				}
			} else {
				if _, err = fencedOnce(c, fwd, redist.Layout{SrcBase: 0, DstBase: n}, nil, mid, 2*e, opts); err == nil {
					_, err = fencedOnce(c, rev, redist.Layout{SrcBase: n, DstBase: 0}, mid, nil, 2*e+1, opts)
				}
			}
			if err != nil {
				t.Errorf("round %d rank %d: %v", e, r, err)
				return
			}
			if r < n {
				for i := range back {
					if back[i] != src[r][i] {
						t.Errorf("round %d rank %d: element %d came back %v, sent %v", e, r, i, back[i], src[r][i])
						return
					}
				}
				clear(back)
			}
		}
	}
	wg.Add(2 * n)
	for r := 0; r < n; r++ {
		go body(csA[r], memA)
		go body(csB[n+r], memB)
	}
	wg.Wait()
	if memA.Epoch() != 1 || memB.Epoch() != 1 {
		t.Fatalf("membership changed under pure link chaos: epochs %d/%d", memA.Epoch(), memB.Epoch())
	}
	if obs.Default().Counter("redist.remote_bytes_lent").Value() == lent || obs.Default().Counter("wire.bytes_placed").Value() == placed {
		t.Error("the soak lent or placed nothing: its shape no longer exercises the zero-copy path")
	}
	if obs.Default().Counter("session.reconnects").Value() == reconnects {
		t.Error("the link never flapped")
	}
}

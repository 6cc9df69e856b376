package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"mxn"
	"mxn/internal/cca"
	"mxn/internal/prmi"
)

// withConnLabel runs fn under a runtime/pprof "conn" label so profiles
// attribute a transfer's samples to the connection that carried it.
func withConnLabel(connID string, fn func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels("conn", connID), func(context.Context) {
		err = fn()
	})
	return err
}

// runE1 reproduces Figure 1: a 60³ field moves from M=8 (2×2×2 blocks) to
// N=27 (3×3×3 blocks) with live cohorts, reporting the communication
// pattern and verifying the element bijection.
func runE1() error {
	const m, n = 8, 27
	src, err := mxn.NewTemplate([]int{60, 60, 60},
		[]mxn.AxisDist{mxn.BlockAxis(2), mxn.BlockAxis(2), mxn.BlockAxis(2)})
	if err != nil {
		return err
	}
	dst, err := mxn.NewTemplate([]int{60, 60, 60},
		[]mxn.AxisDist{mxn.BlockAxis(3), mxn.BlockAxis(3), mxn.BlockAxis(3)})
	if err != nil {
		return err
	}
	buildStart := time.Now()
	sched, err := mxn.BuildSchedule(src, dst)
	if err != nil {
		return err
	}
	buildTime := time.Since(buildStart)

	srcLocals := make([][]float64, m)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		fill3D(src, r, srcLocals[r])
	}
	dstLocals := make([][]float64, n)
	var mu sync.Mutex
	xferStart := time.Now()
	mxn.Run(m+n, func(c *mxn.Comm) {
		lay := mxn.Layout{SrcBase: 0, DstBase: m}
		var sl, dl []float64
		if c.Rank() < m {
			sl = srcLocals[c.Rank()]
		} else {
			dl = make([]float64, dst.LocalCount(c.Rank()-m))
		}
		xt, err := mxn.NewTransfer[float64](c, sched, lay, 0, mxn.TransferOpts{})
		if err == nil {
			_, err = xt.Run(sl, dl)
		}
		if err != nil {
			panic(err)
		}
		if dl != nil {
			mu.Lock()
			dstLocals[c.Rank()-m] = dl
			mu.Unlock()
		}
	})
	xferTime := time.Since(xferStart)

	bad := 0
	forAll3D(60, func(i, j, k int) {
		idx := []int{i, j, k}
		r := dst.OwnerOf(idx)
		if dstLocals[r][dst.LocalOffset(r, idx)] != fp3(i, j, k) {
			bad++
		}
	})
	t := &table{header: []string{"metric", "value"}}
	t.add("global elements", fmt.Sprintf("%d (60³ float64, %.1f MB)", sched.TotalElems(), float64(sched.TotalElems())*8/1e6))
	t.add("pairwise messages", fmt.Sprintf("%d (of %d possible pairs)", sched.NumMessages(), m*n))
	t.add("schedule build", buildTime.Round(time.Microsecond).String())
	t.add("parallel transfer", xferTime.Round(time.Microsecond).String())
	t.add("elements verified", fmt.Sprintf("%d bad of %d", bad, sched.TotalElems()))
	t.print()
	if bad != 0 {
		return fmt.Errorf("%d elements corrupted", bad)
	}
	return nil
}

func fp3(i, j, k int) float64 { return float64(i)*1e6 + float64(j)*1e3 + float64(k) }

func fill3D(t *mxn.Template, rank int, local []float64) {
	forAll3D(t.Dims()[0], func(i, j, k int) {
		idx := []int{i, j, k}
		if t.OwnerOf(idx) == rank {
			local[t.LocalOffset(rank, idx)] = fp3(i, j, k)
		}
	})
}

func forAll3D(n int, fn func(i, j, k int)) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				fn(i, j, k)
			}
		}
	}
}

// runE2 contrasts the paper's Figure 2 framework types by measuring the
// cost of the same port invocation in each: a direct-connected framework
// (library call), a distributed framework co-located in one process
// (PRMI over the in-process link), and a distributed framework over TCP
// loopback (PRMI between two worlds coupled by ConnectPeer over a socket).
func runE2() error {
	const calls = 2000
	direct, err := measureDirectCall(calls)
	if err != nil {
		return err
	}
	inproc, err := measurePRMI(calls, false)
	if err != nil {
		return err
	}
	tcp, err := measurePRMI(calls, true)
	if err != nil {
		return err
	}
	t := &table{header: []string{"framework type", "port invocation", "per call", "vs direct"}}
	t.add("direct-connected", "library call (Figure 2 left)", direct.String(), "1×")
	t.add("distributed, co-located", "PRMI over in-process link", inproc.String(), ratio(inproc, direct))
	t.add("distributed, TCP loopback", "PRMI over sockets (Figure 2 right)", tcp.String(), ratio(tcp, direct))
	t.print()
	fmt.Println("shape check: library call ≪ in-process RMI < socket RMI, as the paper's framework taxonomy implies.")
	return nil
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f×", float64(a)/float64(b))
}

// squarePort is the port type of the direct-call measurement.
const squarePort cca.PortType = "e2.Square"

// directPort is the provider component of the direct-call measurement.
type directPort struct{ acc float64 }

func (p *directPort) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort("square", squarePort, p)
}

func (p *directPort) Square(x float64) float64 {
	p.acc += x
	return x * x
}

// directDriver is the user component: its Go port resolves the uses port
// once, then times the calls.
type directDriver struct {
	svc   cca.Services
	calls int
	per   time.Duration
}

func (d *directDriver) SetServices(svc cca.Services) error {
	d.svc = svc
	if err := svc.RegisterUsesPort("square", squarePort); err != nil {
		return err
	}
	return svc.AddProvidesPort("go", cca.GoPortType, d)
}

func (d *directDriver) Go() error {
	p, err := d.svc.GetPort("square") // the provider's own object
	if err != nil {
		return err
	}
	port := p.(interface{ Square(float64) float64 })
	start := time.Now()
	for i := 0; i < d.calls; i++ {
		_ = port.Square(float64(i))
	}
	d.per = time.Since(start) / time.Duration(d.calls)
	return nil
}

// measureDirectCall times a port call in a direct-connected framework
// (cca.DirectFramework): a library call on the provider's object.
func measureDirectCall(calls int) (time.Duration, error) {
	f := cca.NewDirectFramework(1)
	driver := &directDriver{calls: calls}
	if err := f.AddComponent("solver", func(int) cca.Component { return &directPort{} }); err != nil {
		return 0, err
	}
	if err := f.AddComponent("driver", func(int) cca.Component { return driver }); err != nil {
		return 0, err
	}
	if err := f.Connect("driver", "square", "solver", "square"); err != nil {
		return 0, err
	}
	err := f.Run()
	return driver.per, err
}

func measurePRMI(calls int, overTCP bool) (time.Duration, error) {
	pkg, err := mxn.ParseSIDL(`package p; interface I { independent double square(in double x); }`)
	if err != nil {
		return 0, err
	}
	iface, _ := pkg.Interface("I")

	// Caller rank 0 and callee rank 1 share one world, or live in two
	// worlds coupled by ConnectPeer over one TCP connection.
	var callerComm, calleeComm *mxn.Comm
	if overTCP {
		l, err := mxn.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer l.Close()
		type acc struct {
			conn mxn.Conn
			err  error
		}
		ch := make(chan acc, 1)
		go func() {
			c, err := l.Accept()
			ch <- acc{c, err}
		}()
		cli, err := mxn.Dial("tcp", l.Addr())
		if err != nil {
			return 0, err
		}
		srv := <-ch
		if srv.err != nil {
			cli.Close()
			return 0, srv.err
		}
		wa, wb := mxn.NewWorld(2), mxn.NewWorld(2)
		pa, pb := wa.ConnectPeer(cli, []int{1}), wb.ConnectPeer(srv.conn, []int{0})
		defer pb.Close()
		defer pa.Close()
		callerComm, calleeComm = wa.SharedGroup(1, []int{0, 1})[0], wb.SharedGroup(1, []int{0, 1})[1]
	} else {
		cs := mxn.NewWorld(2).Comms()
		callerComm, calleeComm = cs[0], cs[1]
	}
	callerLink, calleeLink := mxn.NewCommLink(callerComm, 1, 0), mxn.NewCommLink(calleeComm, 0, 0)

	done := make(chan error, 1)
	go func() {
		ep := mxn.NewEndpoint(iface, calleeLink, 0, 1, 1)
		ep.Handle("square", func(in *mxn.Incoming, out *mxn.Outgoing) error {
			x := in.Simple["x"].(float64)
			out.Return = x * x
			return nil
		})
		done <- ep.Serve()
	}()
	port := mxn.NewCallerPort(iface, callerLink, 0, 1, mxn.Eager)
	connID := "e2-inproc"
	if overTCP {
		connID = "e2-tcp"
	}
	start := time.Now()
	if err := withConnLabel(connID, func() error {
		for i := 0; i < calls; i++ {
			if _, err := port.CallIndependent(0, "square", mxn.Simple("x", float64(i))); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, err
	}
	per := time.Since(start) / time.Duration(calls)
	if err := port.Close(); err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return per, nil
}

// runE3 reproduces Figure 3: two direct-connected framework instances,
// each with its own cohort, coupled by paired M×N components over an
// out-of-band bridge — in-memory and over TCP — with one-shot and
// persistent transfers.
func runE3() error {
	t := &table{header: []string{"bridge", "mode", "frames", "elements/frame", "throughput"}}
	for _, cfg := range []struct {
		name string
		tcp  bool
	}{{"in-memory (co-located)", false}, {"TCP loopback", true}} {
		oneShot, err := runE3Bridge(cfg.tcp, 1)
		if err != nil {
			return err
		}
		persistent, err := runE3Bridge(cfg.tcp, 200)
		if err != nil {
			return err
		}
		t.add(cfg.name, "one-shot", "1", fmt.Sprint(e3Elems), oneShot)
		t.add(cfg.name, "persistent (each-frame)", "200", fmt.Sprint(e3Elems), persistent)
	}
	t.print()
	fmt.Println("the persistent channel amortizes negotiation: per-frame cost drops well below the one-shot cost.")
	return nil
}

const e3Elems = 64 * 64

func runE3Bridge(overTCP bool, frames int) (string, error) {
	var ba, bb mxn.Bridge
	if overTCP {
		l, err := mxn.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer l.Close()
		type acc struct {
			conn mxn.Conn
			err  error
		}
		ch := make(chan acc, 1)
		go func() {
			c, err := l.Accept()
			ch <- acc{c, err}
		}()
		cli, err := mxn.Dial("tcp", l.Addr())
		if err != nil {
			return "", err
		}
		srv := <-ch
		if srv.err != nil {
			return "", srv.err
		}
		ba = mxn.NewNetBridge(cli)
		bb = mxn.NewNetBridge(srv.conn)
	} else {
		ba, bb = mxn.BridgePair()
	}
	const m, n = 4, 2
	srcT, _ := mxn.NewTemplate([]int{64, 64}, []mxn.AxisDist{mxn.BlockAxis(m), mxn.CollapsedAxis()})
	dstT, _ := mxn.NewTemplate([]int{64, 64}, []mxn.AxisDist{mxn.CollapsedAxis(), mxn.BlockAxis(n)})
	srcD, _ := mxn.NewDescriptor("field", mxn.Float64, mxn.ReadOnly, srcT)
	dstD, _ := mxn.NewDescriptor("field", mxn.Float64, mxn.WriteOnly, dstT)
	hubA := mxn.NewHub("A", m, ba)
	hubB := mxn.NewHub("B", n, bb)
	if err := hubA.Register(srcD); err != nil {
		return "", err
	}
	if err := hubB.Register(dstD); err != nil {
		return "", err
	}
	opts := mxn.ConnOpts{Persistent: frames > 1, Sync: mxn.SyncEachFrame}
	var dstConn *mxn.Connection
	accDone := make(chan error, 1)
	go func() {
		var err error
		dstConn, err = hubB.Accept()
		accDone <- err
	}()
	srcConn, err := hubA.Propose("e3", "field", "field", mxn.AsSource, opts)
	if err != nil {
		return "", err
	}
	if err := <-accDone; err != nil {
		return "", err
	}

	connID := "e3-mem"
	if overTCP {
		connID = "e3-tcp"
	}
	start := time.Now()
	// The transfer goroutines are spawned under the conn label and
	// inherit it, so profiles split DataReady time per bridge kind.
	if err := withConnLabel(connID, func() error {
		var wg sync.WaitGroup
		var failMu sync.Mutex
		var fail error
		for r := 0; r < m; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				local := make([]float64, srcT.LocalCount(r))
				for f := 0; f < frames; f++ {
					local[0] = float64(f)
					if _, err := srcConn.DataReady(r, local); err != nil {
						failMu.Lock()
						fail = err
						failMu.Unlock()
						return
					}
				}
			}(r)
		}
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				buf := make([]float64, dstT.LocalCount(r))
				for f := 0; f < frames; f++ {
					if _, err := dstConn.DataReady(r, buf); err != nil {
						failMu.Lock()
						fail = err
						failMu.Unlock()
						return
					}
				}
			}(r)
		}
		wg.Wait()
		return fail
	}); err != nil {
		return "", err
	}
	elapsed := time.Since(start)
	bytes := float64(e3Elems*8*frames) / 1e6
	return fmt.Sprintf("%.1f MB/s (%s/frame)", bytes/elapsed.Seconds(),
		(elapsed / time.Duration(frames)).Round(time.Microsecond)), nil
}

// runE5 reproduces Figure 5: consecutive collective calls from different
// but intersecting participant sets, under the three policies.
func runE5() error {
	outcomes := []struct {
		policy  string
		mode    prmi.DeliveryMode
		strict  bool
		expect  string
		observe string
	}{
		{"eager delivery, faithful matching", prmi.Eager, false, "deadlock (paper's Figure 5)", ""},
		{"eager delivery, strict matching", prmi.Eager, true, "order violation detected", ""},
		{"barrier-delayed delivery (DCA rule)", prmi.BarrierDelayed, false, "completes", ""},
	}
	for i := range outcomes {
		serveErr, callOK := runFigure5Scenario(outcomes[i].mode, outcomes[i].strict)
		switch {
		case errors.Is(serveErr, prmi.ErrStalled):
			outcomes[i].observe = "callee stalled waiting for participants (deadlock, surfaced by watchdog)"
		case isOrderViolation(serveErr):
			outcomes[i].observe = "callee detected inconsistent delivery: " + serveErr.Error()
		case serveErr == nil && callOK:
			outcomes[i].observe = "both calls delivered and completed"
		default:
			outcomes[i].observe = fmt.Sprintf("unexpected: serveErr=%v callOK=%v", serveErr, callOK)
		}
	}
	t := &table{header: []string{"delivery policy", "expected", "observed"}}
	for _, o := range outcomes {
		t.add(o.policy, o.expect, o.observe)
	}
	t.print()
	return nil
}

func isOrderViolation(err error) bool {
	var ov *prmi.OrderViolationError
	return errors.As(err, &ov)
}

// runFigure5Scenario builds the exact Figure 5 pattern: proc 0 calls
// method A with participants {0,1,2}; procs 1,2 first call B with {1,2},
// then join A.
func runFigure5Scenario(mode prmi.DeliveryMode, strict bool) (serveErr error, callsOK bool) {
	pkg, _ := mxn.ParseSIDL(`package p; interface I { collective double f(in double x); }`)
	iface, _ := pkg.Interface("I")
	w := mxn.NewWorld(4)
	all := w.Comms()
	full := w.Group([]int{0, 1, 2})
	sub := w.Group([]int{1, 2})
	started := make(chan struct{})
	var serveWG, callWG sync.WaitGroup
	okCh := make(chan bool, 3)
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		ep := prmi.NewEndpoint(iface, prmi.NewCommLink(all[3], 0, 0), 0, 1, 3)
		ep.StallTimeout = 300 * time.Millisecond
		ep.StrictMatching = strict
		ep.Handle("f", func(in *prmi.Incoming, out *prmi.Outgoing) error {
			out.Return = 0.0
			return nil
		})
		serveErr = ep.Serve()
	}()
	for i := 0; i < 3; i++ {
		callWG.Add(1)
		go func(i int) {
			defer callWG.Done()
			p := prmi.NewCallerPort(iface, prmi.NewCommLink(all[i], 3, 0), i, 1, mode)
			partA := prmi.Participation{Ranks: []int{0, 1, 2}, Group: full[i]}
			if i == 0 {
				close(started)
				_, err := p.CallCollective("f", partA, prmi.Simple("x", 1.0))
				okCh <- err == nil
			} else {
				<-started
				time.Sleep(30 * time.Millisecond)
				partB := prmi.Participation{Ranks: []int{1, 2}, Group: sub[i-1]}
				if _, err := p.CallCollective("f", partB, prmi.Simple("x", 2.0)); err != nil {
					okCh <- false
					p.Close()
					return
				}
				_, err := p.CallCollective("f", partA, prmi.Simple("x", 1.0))
				okCh <- err == nil
			}
			p.Close()
		}(i)
	}
	serveWG.Wait()
	done := make(chan struct{})
	go func() {
		callWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		callsOK = true
		for len(okCh) > 0 {
			if !<-okCh {
				callsOK = false
			}
		}
	case <-time.After(2 * time.Second):
		callsOK = false // blocked callers: the deadlock case
	}
	return serveErr, callsOK
}

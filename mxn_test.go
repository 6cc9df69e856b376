package mxn

import (
	"sync"
	"testing"
	"time"
)

// TestFacadeQuickstart exercises the paper's Figure 1 scenario through
// the public facade alone: a 3-D array moves from an M=8 cohort to an
// N=27 cohort.
func TestFacadeQuickstart(t *testing.T) {
	src, err := NewTemplate([]int{6, 6, 6}, []AxisDist{BlockAxis(2), BlockAxis(2), BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewTemplate([]int{6, 6, 6}, []AxisDist{BlockAxis(3), BlockAxis(3), BlockAxis(3)})
	if err != nil {
		t.Fatal(err)
	}
	srcLocals := make([][]float64, 8)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, src.LocalCount(r))
		for i := range srcLocals[r] {
			srcLocals[r][i] = float64(r*1000 + i)
		}
	}
	dstLocals := make([][]float64, 27)
	for r := range dstLocals {
		dstLocals[r] = make([]float64, dst.LocalCount(r))
	}
	if err := Redistribute(src, dst, srcLocals, dstLocals); err != nil {
		t.Fatal(err)
	}
	// Spot-check: value at a global index survives the move.
	idx := []int{3, 4, 5}
	sr := src.OwnerOf(idx)
	dr := dst.OwnerOf(idx)
	want := srcLocals[sr][src.LocalOffset(sr, idx)]
	got := dstLocals[dr][dst.LocalOffset(dr, idx)]
	if got != want {
		t.Errorf("value at %v: got %v want %v", idx, got, want)
	}
}

// runOnce builds a rank's transfer handle through the facade and runs it
// once: the form for tests where reusing the handle is not the point.
func runOnce[T Elem](c *Comm, s *Schedule, lay Layout, src, dst []T, tag int, opts TransferOpts) (*FenceOutcome, error) {
	xt, err := NewTransfer[T](c, s, lay, tag, opts)
	if err != nil {
		return nil, err
	}
	return xt.Run(src, dst)
}

// TestFacadeParallelExchange runs the parallel executor through the
// facade, on a schedule built from the templates and on one lowered from
// their row-major linearizations.
func TestFacadeParallelExchange(t *testing.T) {
	src, _ := NewTemplate([]int{16}, []AxisDist{BlockAxis(2)})
	dst, _ := NewTemplate([]int{16}, []AxisDist{CyclicAxis(3)})
	built, err := BuildSchedule(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := LinearSchedule(RowMajorLinearization(src), RowMajorLinearization(dst))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{built, lowered} {
		got := make([][]float64, 3)
		var mu sync.Mutex
		Run(5, func(c *Comm) {
			lay := Layout{SrcBase: 0, DstBase: 2}
			var sl, dl []float64
			if c.Rank() < 2 {
				sl = make([]float64, src.LocalCount(c.Rank()))
				for i := range sl {
					sl[i] = float64(c.Rank()*8 + i)
				}
			} else {
				dl = make([]float64, dst.LocalCount(c.Rank()-2))
			}
			if _, err := runOnce(c, s, lay, sl, dl, 0, TransferOpts{}); err != nil {
				t.Errorf("rank %d: %v", c.Rank(), err)
			}
			if dl != nil {
				mu.Lock()
				got[c.Rank()-2] = dl
				mu.Unlock()
			}
		})
		for g := 0; g < 16; g++ {
			r := dst.OwnerOf([]int{g})
			if v := got[r][dst.LocalOffset(r, []int{g})]; v != float64(g) {
				t.Errorf("%v: global %d = %v", s, g, v)
			}
		}
	}
}

// TestFacadeHub exercises the M×N component through the facade.
func TestFacadeHub(t *testing.T) {
	ba, bb := BridgePair()
	a := NewHub("A", 1, ba)
	b := NewHub("B", 1, bb)
	tpl, _ := NewTemplate([]int{4}, []AxisDist{BlockAxis(1)})
	da, _ := NewDescriptor("f", Float64, ReadOnly, tpl)
	db, _ := NewDescriptor("f", Float64, WriteOnly, tpl)
	if err := a.Register(da); err != nil {
		t.Fatal(err)
	}
	if err := b.Register(db); err != nil {
		t.Fatal(err)
	}
	srcConn, dstConn, err := ConnectHubs("c", a, "f", b, "f", ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcConn.DataReady(0, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4)
	if _, err := dstConn.DataReady(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[2] != 3 {
		t.Errorf("buf = %v", buf)
	}
}

// TestFacadePRMI drives a collective invocation through the facade.
func TestFacadePRMI(t *testing.T) {
	pkg, err := ParseSIDL(`package p; interface I { collective double sum(in double x); }`)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("I")
	w := NewWorld(3)
	all := w.Comms()
	callerCohort := w.Group([]int{0, 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep := NewEndpoint(iface, NewCommLink(all[2], 0, 0), 0, 1, 2)
		ep.Handle("sum", func(in *Incoming, out *Outgoing) error {
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		})
		if err := ep.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(iface, NewCommLink(all[i], 2, 0), i, 1, BarrierDelayed)
			res, err := p.CallCollective("sum", FullParticipation(callerCohort[i]), Simple("x", 21.0))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			} else if res.Return != 42.0 {
				t.Errorf("caller %d: %v", i, res.Return)
			}
			p.Close()
		}(i)
	}
	wg.Wait()
}

// TestFacadeResize runs a complete online grow through the public facade
// alone: propose, migrate on the prepare epoch, commit, then verify the
// post-resize steady state still exchanges over the grown cohort.
func TestFacadeResize(t *testing.T) {
	oldT, err := NewTemplate([]int{24}, []AxisDist{BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	newT, err := Reblock(oldT, 4)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMembership(2)
	rz, err := mem.ProposeResize(4)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewScheduleCache()
	srcLocals := make([][]float64, 2)
	for r := range srcLocals {
		srcLocals[r] = make([]float64, oldT.LocalCount(r))
		for i := range srcLocals[r] {
			srcLocals[r][i] = float64(r*1000 + i)
		}
	}
	dstLocals := make([][]float64, 4)
	var mu sync.Mutex
	Run(4, func(c *Comm) {
		opts := TransferOpts{Membership: mem, Policy: FailStrict, PollInterval: time.Millisecond, Cache: cache, Resize: rz}
		var sl []float64
		if c.Rank() < 2 {
			sl = srcLocals[c.Rank()]
		}
		dl := make([]float64, newT.LocalCount(c.Rank()))
		s, err := cache.Get(oldT, newT)
		var out *FenceOutcome
		if err == nil {
			out, err = runOnce(c, s, Layout{}, sl, dl, 0, opts)
		}
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		if out.Epoch != rz.PrepareEpoch() {
			t.Errorf("rank %d entered at epoch %d, want %d", c.Rank(), out.Epoch, rz.PrepareEpoch())
		}
		mu.Lock()
		dstLocals[c.Rank()] = dl
		mu.Unlock()
	})
	if _, err := CommitReconfigure(rz, cache, oldT); err != nil {
		t.Fatal(err)
	}
	if mem.Width() != 4 {
		t.Fatalf("committed width %d, want 4", mem.Width())
	}
	// Every element landed where the grown layout says it lives.
	for g := 0; g < 24; g++ {
		idx := []int{g}
		sr, dr := oldT.OwnerOf(idx), newT.OwnerOf(idx)
		want := srcLocals[sr][oldT.LocalOffset(sr, idx)]
		got := dstLocals[dr][newT.LocalOffset(dr, idx)]
		if got != want {
			t.Errorf("global %d: got %v want %v", g, got, want)
		}
	}
}

// TestFacadeSession exercises the session re-exports: a resumable
// connection established through the facade alone round-trips messages.
// (The chaos behaviors — resume, replay, ErrPeerLost — are soaked in
// internal/session and internal/chaosnet.)
func TestFacadeSession(t *testing.T) {
	raw, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lst := WrapSessionListener(raw, SessionConfig{})
	defer lst.Close()

	done := make(chan error, 1)
	go func() {
		c, err := lst.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(msg)
	}()

	cfg := SessionConfig{MaxAttempts: 2, MaxElapsed: 2 * time.Second,
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	conn, err := DialSession("tcp", lst.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	echo, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(echo) != "ping" {
		t.Fatalf("echo = %q", echo)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

package prmi

// Tests of the pooled, vectored, encode-once data path of parallel
// arguments: a differential matrix against redist.ExecuteLocalT over every
// link kind, a pooled-buffer leak oracle over the failure paths, the
// steady-state allocation guard, and the packed == unpacked invariant.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

const pathIDL = `package p; interface Path {
	collective void put(in parallel array<double> field);
	collective void get(out parallel array<double> field);
	collective void upd(inout parallel array<double> field, in double k);
	collective void other(in double k);
}`

func pathIface(t testing.TB) *sidl.Interface {
	t.Helper()
	pkg, err := sidl.Parse(pathIDL)
	if err != nil {
		t.Fatal(err)
	}
	iface, _ := pkg.Interface("Path")
	return iface
}

// fabric is one way of connecting m caller ranks to n callee ranks.
type fabric struct {
	callers, callees []Link
	close            func()
}

// worldFabric puts both cohorts in one comm world.
func worldFabric(t testing.TB, m, n int) fabric {
	cs := comm.NewWorld(m + n).Comms()
	f := fabric{close: func() {}}
	for i := 0; i < m; i++ {
		f.callers = append(f.callers, NewCommLink(cs[i], m, 0))
	}
	for j := 0; j < n; j++ {
		f.callees = append(f.callees, NewCommLink(cs[m+j], 0, 0))
	}
	return f
}

// pipeFabric puts each cohort in its own world and couples the worlds
// with ConnectPeer over a transport.Pipe.
func pipeFabric(t testing.TB, m, n int) fabric {
	a, b := transport.Pipe()
	return couple(m, n, a, b).fabric(func() {})
}

// fabric returns c's links, closing c and then running after.
func (c *coupling) fabric(after func()) fabric {
	f := fabric{close: func() {
		c.close()
		after()
	}}
	for i := 0; i < c.m; i++ {
		f.callers = append(f.callers, c.callerLink(i))
	}
	for j := 0; j < c.n; j++ {
		f.callees = append(f.callees, c.calleeLink(j))
	}
	return f
}

// sessionFabric puts each cohort in its own world and couples the worlds
// with ConnectPeer over one session over TCP whose physical connections
// die after flapAfter messages (never, when flapAfter is 0). With lose set
// nobody answers the redial and the session gives the peer up after a
// short budget.
func sessionFabric(t testing.TB, m, n, flapAfter int, lose bool) fabric {
	t.Helper()
	cfg := session.Config{MaxAttempts: 50, MaxElapsed: 30 * time.Second, BaseBackoff: time.Millisecond,
		MaxBackoff: 5 * time.Millisecond, HandshakeTimeout: 5 * time.Second}
	if lose {
		cfg.MaxAttempts, cfg.MaxElapsed = 2, 100*time.Millisecond
	}
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var inner transport.Listener = raw
	if flapAfter > 0 {
		inner = faultconn.WrapListener(raw, faultconn.Scenario{Seed: 7, FlapAfter: flapAfter})
	}
	lst := session.WrapListener(inner, cfg)
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := lst.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := session.Dial("tcp", lst.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := <-ch
	if srv.err != nil {
		t.Fatal(srv.err)
	}
	if lose {
		raw.Close()
	}
	return couple(m, n, cli, srv.c).fabric(func() { lst.Close() })
}

// awaitPool fails the test unless every pooled buffer handed out since
// baseline comes back. Session acknowledgements and teardown are
// asynchronous, so the oracle polls.
func awaitPool(t testing.TB, baseline int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pooled buffers still outstanding", what, bufpool.Outstanding()-baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

func layoutAxis(kind, procs int) dad.AxisDist {
	switch kind % 3 {
	case 0:
		return dad.BlockAxis(procs)
	case 1:
		return dad.CyclicAxis(procs)
	}
	return dad.BlockCyclicAxis(procs, 3)
}

// bitsEqual compares element bit patterns, so NaN payloads and signed
// zeros count.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// value gives every (tag, index) a distinct bit pattern, among them a NaN
// with a payload and a negative zero.
func value(tag, i int) float64 {
	switch i % 11 {
	case 3:
		return math.Float64frombits(0x7ff8000000000000 | uint64(tag*1000+i+1))
	case 7:
		return math.Copysign(0, -1)
	}
	return float64(tag*100003+i)*1.25 + 0.5
}

func flipBits(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ 0x000f0f0f0f0f0f0f)
}

// TestParallelPathDifferential: for in / out / inout parameters, every
// caller/callee cohort width from 1 to 3 (ghost invocations and ghost
// returns included), block, cyclic and block-cyclic layouts, and the three
// link kinds, the callee sees exactly redist.ExecuteLocalT of the callers'
// data and the callers get the handlers' results back bit for bit; every
// pooled buffer returns, and every packed element is unpacked once.
func TestParallelPathDifferential(t *testing.T) {
	obs.DisableTracing()
	iface := pathIface(t)
	links := []struct {
		name string
		make func(t testing.TB, m, n int) fabric
	}{
		{"world", worldFabric},
		{"pipe", pipeFabric},
		{"session-flap", func(t testing.TB, m, n int) fabric { return sessionFabric(t, m, n, 7, false) }},
	}
	packed, unpacked := mFragElemsPacked.Value(), mFragElemsUnpacked.Value()
	const elems = 37
	for _, lk := range links {
		for m := 1; m <= 3; m++ {
			for n := 1; n <= 3; n++ {
				for lay := 0; lay < 3; lay++ {
					t.Run(fmt.Sprintf("%s/%dx%d/layout%d", lk.name, m, n, lay), func(t *testing.T) {
						baseline := bufpool.Outstanding()
						runDifferential(t, iface, lk.make(t, m, n), m, n, lay, elems)
						awaitPool(t, baseline, "after success")
					})
				}
			}
		}
	}
	if p, u := mFragElemsPacked.Value()-packed, mFragElemsUnpacked.Value()-unpacked; p != u || p == 0 {
		t.Errorf("prmi.frag_elems_packed advanced by %d, prmi.frag_elems_unpacked by %d; want equal and non-zero", p, u)
	}
}

func runDifferential(t *testing.T, iface *sidl.Interface, f fabric, m, n, lay, elems int) {
	callerT, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{layoutAxis(lay, m)})
	if err != nil {
		t.Fatal(err)
	}
	calleeT, err := dad.NewTemplate([]int{elems}, []dad.AxisDist{layoutAxis(lay+1, n)})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := schedule.Build(callerT, calleeT)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := schedule.Build(calleeT, callerT)
	if err != nil {
		t.Fatal(err)
	}
	alloc := func(tpl *dad.Template, fill func(rank, i int) float64) [][]float64 {
		out := make([][]float64, tpl.NumProcs())
		for r := range out {
			out[r] = make([]float64, tpl.LocalCount(r))
			for i := range out[r] {
				out[r][i] = fill(r, i)
			}
		}
		return out
	}
	zero := func(int, int) float64 { return 0 }
	// What the callers hold, what the callees must see, what the handlers
	// produce (get: generated, upd: the seen data with bits flipped), and
	// what the callers must get back.
	src := alloc(callerT, func(r, i int) float64 { return value(r+1, i) })
	seen := alloc(calleeT, zero)
	redist.ExecuteLocalT(fwd, src, seen)
	made := alloc(calleeT, func(r, i int) float64 { return value(r+10, i) })
	flipped := alloc(calleeT, func(r, i int) float64 { return flipBits(seen[r][i]) })
	wantGet, wantUpd := alloc(callerT, zero), alloc(callerT, zero)
	redist.ExecuteLocalT(rev, made, wantGet)
	redist.ExecuteLocalT(rev, flipped, wantUpd)

	var wg sync.WaitGroup
	serveErrs := make([]error, n)
	for j := 0; j < n; j++ {
		ep := NewEndpoint(iface, f.callees[j], j, n, m)
		for _, method := range []string{"put", "get", "upd"} {
			if err := ep.RegisterArgLayout(method, "field", calleeT); err != nil {
				t.Fatal(err)
			}
		}
		check := func(in *Incoming) error {
			if !bitsEqual(in.Parallel["field"], seen[in.CalleeRank]) {
				return fmt.Errorf("callee %d: assembled field differs from ExecuteLocalT", in.CalleeRank)
			}
			return nil
		}
		ep.Handle("put", func(in *Incoming, out *Outgoing) error { return check(in) })
		ep.Handle("get", func(in *Incoming, out *Outgoing) error {
			copy(out.Parallel["field"], made[in.CalleeRank])
			return nil
		})
		ep.Handle("upd", func(in *Incoming, out *Outgoing) error {
			err := check(in)
			buf := out.Parallel["field"] // the same array, to change in place
			for i := range buf {
				buf[i] = flipBits(buf[i])
			}
			return err
		})
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			serveErrs[j] = ep.Serve()
		}(j)
	}
	ranks := identityRanks(m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := NewCallerPort(iface, f.callers[i], i, n, Eager)
			for _, method := range []string{"put", "get", "upd"} {
				if err := p.SetCalleeLayout(method, "field", calleeT); err != nil {
					t.Error(err)
				}
			}
			part := Participation{Ranks: ranks}
			got := make([]float64, len(src[i]))
			if _, err := p.CallCollective("put", part, Parallel("field", callerT, src[i])); err != nil {
				t.Errorf("caller %d put: %v", i, err)
			}
			if _, err := p.CallCollective("get", part, Parallel("field", callerT, got)); err != nil {
				t.Errorf("caller %d get: %v", i, err)
			} else if !bitsEqual(got, wantGet[i]) {
				t.Errorf("caller %d: out data differs from ExecuteLocalT of the handlers' arrays", i)
			}
			copy(got, src[i])
			if _, err := p.CallCollective("upd", part, Parallel("field", callerT, got), Simple("k", 1.0)); err != nil {
				t.Errorf("caller %d upd: %v", i, err)
			} else if !bitsEqual(got, wantUpd[i]) {
				t.Errorf("caller %d: inout data differs from ExecuteLocalT of the handlers' arrays", i)
			}
			if err := p.Close(); err != nil {
				t.Errorf("caller %d close: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for j, err := range serveErrs {
		if err != nil {
			t.Errorf("callee %d serve: %v", j, err)
		}
	}
	f.close()
}

// pair22 stands up the 2x2 inout coupling of the leak and regression
// tests: cyclic callers, block callees, one world unless f is given.
type pair22 struct {
	iface            *sidl.Interface
	callerT, calleeT *dad.Template
	ports            []*CallerPort
	eps              []*Endpoint
	field            [][]float64
}

func newPair22(t testing.TB, f fabric) *pair22 { return newPair22N(t, f, 64) }

// newPair22N is newPair22 over a field of elems elements.
func newPair22N(t testing.TB, f fabric, elems int) *pair22 {
	t.Helper()
	c := &pair22{iface: pathIface(t)}
	var err error
	if c.callerT, err = dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.CyclicAxis(2)}); err != nil {
		t.Fatal(err)
	}
	if c.calleeT, err = dad.NewTemplate([]int{elems}, []dad.AxisDist{dad.BlockAxis(2)}); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		ep := NewEndpoint(c.iface, f.callees[r], r, 2, 2)
		p := NewCallerPort(c.iface, f.callers[r], r, 2, Eager)
		for _, method := range []string{"put", "upd"} {
			if err := ep.RegisterArgLayout(method, "field", c.calleeT); err != nil {
				t.Fatal(err)
			}
			if err := p.SetCalleeLayout(method, "field", c.calleeT); err != nil {
				t.Fatal(err)
			}
		}
		ep.Handle("upd", func(in *Incoming, out *Outgoing) error {
			k := in.Simple["k"].(float64)
			for i := range out.Parallel["field"] {
				out.Parallel["field"][i] *= k
			}
			return nil
		})
		ep.Handle("other", func(*Incoming, *Outgoing) error { return nil })
		c.eps, c.ports = append(c.eps, ep), append(c.ports, p)
		c.field = append(c.field, make([]float64, c.callerT.LocalCount(r)))
		for i := range c.field[r] {
			c.field[r][i] = value(r, i)
		}
	}
	return c
}

// serve runs both endpoints; the returned func waits for them and reports
// their Serve errors.
func (c *pair22) serve() func() []error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for j, ep := range c.eps {
		wg.Add(1)
		go func(j int, ep *Endpoint) {
			defer wg.Done()
			errs[j] = ep.Serve()
		}(j, ep)
	}
	return func() []error { wg.Wait(); return errs }
}

// callBoth makes both callers invoke upd together with factors k[0], k[1]
// and returns their errors.
func (c *pair22) callBoth(k [2]float64) [2]error {
	return c.both(func(i int) error {
		_, err := c.ports[i].CallCollective("upd", Participation{Ranks: identityRanks(2)},
			Parallel("field", c.callerT, c.field[i]), Simple("k", k[i]))
		return err
	})
}

func (c *pair22) both(call func(i int) error) (errs [2]error) {
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	return errs
}

func (c *pair22) closePorts(t testing.TB) {
	for i, p := range c.ports {
		if err := p.Close(); err != nil {
			t.Errorf("caller %d close: %v", i, err)
		}
	}
}

// TestPartialHandlerErrorReachesEveryCaller is the regression test for a
// hang: when a collective handler fails on some callee ranks only, every
// caller awaiting that rank — its designated callers and those its reverse
// schedule sends out/inout data to — must get the error. Before the fix
// only the designated callers did; caller 0 here, owed data by callee 1
// but designated to callee 0, blocked forever with no timeout set.
func TestPartialHandlerErrorReachesEveryCaller(t *testing.T) {
	baseline := bufpool.Outstanding()
	c := newPair22(t, worldFabric(t, 2, 2))
	c.eps[1].Handle("upd", func(*Incoming, *Outgoing) error { return errors.New("boom on callee 1") })
	wait := c.serve()
	done := make(chan [2]error, 1)
	go func() { done <- c.callBoth([2]float64{2, 2}) }()
	select {
	case errs := <-done:
		for i, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "boom on callee 1") {
				t.Errorf("caller %d: err = %v, want callee 1's handler error", i, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a caller is still waiting for a reply from the failed callee rank")
	}
	c.closePorts(t)
	for j, err := range wait() {
		if err != nil {
			t.Errorf("callee %d serve: %v", j, err)
		}
	}
	awaitPool(t, baseline, "after a handler error on one callee rank")
}

// TestHandlerLengthErrorReachesEveryCaller: a handler that returns an
// array of the wrong size is a handler error like any other.
func TestHandlerLengthErrorReachesEveryCaller(t *testing.T) {
	baseline := bufpool.Outstanding()
	c := newPair22(t, worldFabric(t, 2, 2))
	c.eps[1].Handle("upd", func(in *Incoming, out *Outgoing) error {
		out.Parallel["field"] = make([]float64, 3)
		return nil
	})
	wait := c.serve()
	for i, err := range c.callBoth([2]float64{2, 2}) {
		if err == nil || !strings.Contains(err.Error(), "layout says") {
			t.Errorf("caller %d: err = %v, want the element-count error", i, err)
		}
	}
	c.closePorts(t)
	wait()
	awaitPool(t, baseline, "after a handler returned a short array")
}

// TestPoolBalancedOnFailurePaths is the leak oracle: on every path that
// gives a message up instead of unpacking it, its pooled head and payload
// go back to the pool.
func TestPoolBalancedOnFailurePaths(t *testing.T) {
	t.Run("stale epoch", func(t *testing.T) {
		baseline := bufpool.Outstanding()
		c := newPair22(t, worldFabric(t, 2, 2))
		behind, ahead := core.NewMembership(3), core.NewMembership(3)
		ahead.MarkDown(2)
		for r := 0; r < 2; r++ {
			c.ports[r].SetMembership(behind)
			c.eps[r].SetMembership(ahead)
		}
		wait := c.serve()
		for i, err := range c.callBoth([2]float64{2, 2}) {
			if err == nil || !strings.Contains(err.Error(), "stale epoch") {
				t.Errorf("caller %d: err = %v, want a stale-epoch refusal", i, err)
			}
		}
		c.closePorts(t)
		wait()
		awaitPool(t, baseline, "after stale-epoch rejections")
	})
	t.Run("simple argument mismatch", func(t *testing.T) {
		baseline := bufpool.Outstanding()
		c := newPair22(t, worldFabric(t, 2, 2))
		c.eps[0].CheckSimpleArgs, c.eps[1].CheckSimpleArgs = true, true
		wait := c.serve()
		for i, err := range c.callBoth([2]float64{2, 3}) {
			if err == nil || !strings.Contains(err.Error(), "differ between callers") {
				t.Errorf("caller %d: err = %v, want the consistency error", i, err)
			}
		}
		for j, err := range wait() {
			if err == nil {
				t.Errorf("callee %d kept serving after inconsistent simple arguments", j)
			}
		}
		awaitPool(t, baseline, "after a CheckSimpleArgs mismatch")
	})
	// Caller 0 invokes upd while caller 1 invokes other — intersecting
	// participant sets delivered inconsistently (Figure 5). A strict
	// endpoint fails with the foreign call in hand; a faithful one holds
	// it back and stalls. Either way nothing it holds may leak, in one
	// world or across a session, where the endpoint's receive matched by
	// source is served from the remote path's mailbox.
	for _, fab := range testFabrics {
		for _, strict := range []bool{true, false} {
			name := fmt.Sprintf("order violation strict=%v", strict)
			if fab.name != "world" {
				name += " " + fab.name
			}
			t.Run(name, func(t *testing.T) {
				baseline := bufpool.Outstanding()
				f := fab.make(t, 2, 2)
				c := newPair22(t, f)
				for _, ep := range c.eps {
					ep.StrictMatching, ep.StallTimeout = strict, 100*time.Millisecond
				}
				wait := c.serve()
				callErrs := c.both(func(i int) error {
					c.ports[i].SetTimeout(500 * time.Millisecond)
					part := Participation{Ranks: identityRanks(2)}
					if i == 1 {
						_, err := c.ports[1].CallCollective("other", part, Simple("k", 2.0))
						return err
					}
					_, err := c.ports[0].CallCollective("upd", part, Parallel("field", c.callerT, c.field[0]), Simple("k", 2.0))
					return err
				})
				for i, err := range callErrs {
					if !errors.Is(err, ErrTimeout) {
						t.Errorf("caller %d: err = %v, want a timeout", i, err)
					}
				}
				for j, err := range wait() {
					var ov *OrderViolationError
					if strict && !errors.As(err, &ov) || !strict && !errors.Is(err, ErrStalled) {
						t.Errorf("callee %d: serve err = %v", j, err)
					}
				}
				f.close()
				awaitPool(t, baseline, "after an order violation")
			})
		}
	}
	// A faithful endpoint collecting tally holds caller 1's pulse and two
	// pokes back; after tally it serves pulse, whose collection meets
	// caller 2's departure instead of its call and fails with both pokes
	// still held: Serve must release them.
	t.Run("held calls and departure", func(t *testing.T) {
		baseline := bufpool.Outstanding()
		f := worldFabric(t, 3, 1)
		link := &gatherSignal{Link: f.callees[0], waiting: make(chan struct{})}
		ep := NewEndpoint(calcInterface(t), link, 0, 1, 3)
		ep.StallTimeout = 5 * time.Second
		pokes := 0
		ep.Handle("tally", func(in *Incoming, out *Outgoing) error { out.Return = 1.0; return nil })
		ep.Handle("poke", func(*Incoming, *Outgoing) error { pokes++; return nil })
		served := make(chan error, 1)
		go func() { served <- ep.Serve() }()
		ports := make([]*CallerPort, 3)
		for i := range ports {
			ports[i] = NewCallerPort(calcInterface(t), f.callers[i], i, 1, Eager)
		}
		both := Participation{Ranks: []int{0, 1}}
		first := make(chan error, 1)
		go func() {
			_, err := ports[0].CallCollective("tally", both, Simple("x", 1.0))
			first <- err
		}()
		<-link.waiting
		if _, err := ports[1].CallCollective("pulse", Participation{Ranks: []int{1, 2}}, Simple("n", 1)); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 2; n++ {
			if _, err := ports[1].CallIndependent(0, "poke", Simple("n", n)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ports[1].CallCollective("tally", both, Simple("x", 1.0)); err != nil {
			t.Fatalf("caller 1 tally: %v", err)
		}
		if err := <-first; err != nil {
			t.Fatalf("caller 0 tally: %v", err)
		}
		if err := ports[2].Depart(); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err == nil || !strings.Contains(err.Error(), "during collective") {
			t.Fatalf("serve err = %v, want caller 2's departure during the pulse collection", err)
		}
		if pokes != 0 {
			t.Errorf("%d held pokes ran; the pulse ahead of them never completed", pokes)
		}
		if len(ep.held) != 0 {
			t.Errorf("%d calls still held after Serve returned", len(ep.held))
		}
		awaitPool(t, baseline, "after holding calls, a departure and teardown")
	})
	t.Run("peer lost mid-call", func(t *testing.T) {
		baseline := bufpool.Outstanding()
		// The only physical connection dies after a few frames and the
		// redials go unanswered: the calls cannot complete. The lent
		// payloads sit in the session's replay buffer until it gives up.
		f := sessionFabric(t, 2, 2, 5, true)
		c := newPair22(t, f)
		for r, p := range c.ports {
			p.SetTimeout(300 * time.Millisecond)
			c.eps[r].StallTimeout = 300 * time.Millisecond
		}
		wait := c.serve()
		for i, err := range c.callBoth([2]float64{2, 2}) {
			if err == nil {
				t.Errorf("caller %d completed a call over a dead link", i)
			}
		}
		wait()
		f.close()
		awaitPool(t, baseline, "after losing the peer mid-call")
	})
}

// TestCallCollectiveSteadyStateAllocs pins the allocations of one warm
// in-process 2x2 inout collective call — both callers, both callees, eight
// messages. The seed's per-element path took 451; this path takes 34 (36
// under the race detector): the Parallel and Simple arguments and the
// Result on each caller, the Incoming, the Outgoing, their maps and the
// decoded simple argument on each callee, and the eight Msg headers.
func TestCallCollectiveSteadyStateAllocs(t *testing.T) {
	const budget = 40
	obs.DisableTracing()
	c := newPair22(t, worldFabric(t, 2, 2))
	wait := c.serve()
	part := Participation{Ranks: identityRanks(2)}
	call := func(i int, k float64) {
		if _, err := c.ports[i].CallCollective("upd", part, Parallel("field", c.callerT, c.field[i]), Simple("k", k)); err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	// Caller 1 runs beside the measured caller 0 on a goroutine of its own.
	ks, done := make(chan float64), make(chan bool)
	go func() {
		for k := range ks {
			call(1, k)
			done <- true
		}
	}()
	k := 2.0
	step := func() {
		ks <- k
		call(0, k)
		<-done
		k = 1 / k // keep the field finite
	}
	step()
	step()
	allocs := testing.AllocsPerRun(50, step)
	t.Logf("in-process 2x2 inout CallCollective: %.1f allocs/op", allocs)
	if allocs > budget {
		t.Errorf("steady-state collective call allocates %.1f times, budget %d", allocs, budget)
	}
	close(ks)
	c.closePorts(t)
	wait()
}

// TestCallCollectiveRemoteSteadyStateAlloc is the remote counterpart: a
// warm 2x2 inout collective call on a 64 KiB field between two worlds
// coupled by ConnectPeer over a TCP session. Every frame is read into a
// pooled buffer that the decoded message owns and unpacks from in place,
// so a call allocates only its bookkeeping — reading frames into fresh
// memory cost more than the field itself.
func TestCallCollectiveRemoteSteadyStateAlloc(t *testing.T) {
	const budget = 32 << 10
	obs.DisableTracing()
	f := sessionFabric(t, 2, 2, 0, false)
	c := newPair22N(t, f, 8192)
	wait := c.serve()
	k := 2.0
	step := func() {
		for i, err := range c.callBoth([2]float64{k, k}) {
			if err != nil {
				t.Fatalf("caller %d: %v", i, err)
			}
		}
		k = 1 / k // keep the field finite
	}
	for i := 0; i < 10; i++ {
		step() // warm the pool classes, plans and mailboxes
	}
	// Bytes per call averaged over a batch, median over batches, so a
	// batch that grows a pool class or shares the process with another
	// test's winding-down goroutines does not decide the result.
	per := make([]uint64, 7)
	for b := range per {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 3; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		per[b] = (after.TotalAlloc - before.TotalAlloc) / 3
	}
	slices.Sort(per)
	perCall := per[len(per)/2]
	t.Logf("remote 2x2 inout CallCollective on a 64 KiB field: %d bytes allocated per call", perCall)
	if perCall > budget {
		t.Errorf("warm remote collective call allocates %d bytes, budget %d", perCall, budget)
	}
	c.closePorts(t)
	wait()
	f.close()
}

// frameLink records the payload length, frame capacity and, for a frame
// that is a view of a read-ahead slab, the slab's capacity of every
// message it receives from a connection.
type frameLink struct {
	Link
	mu   sync.Mutex
	seen [][3]int // {payload bytes, frame capacity, slab capacity or 0}
}

func (l *frameLink) Recv(src int, d time.Duration) (int, *Msg, error) {
	from, m, err := l.Link.Recv(src, d)
	if err == nil && m.frame != nil {
		l.mu.Lock()
		l.seen = append(l.seen, [3]int{len(m.payload), cap(m.frame), cap(bufpool.ViewSlab(m.frame))})
		l.mu.Unlock()
	}
	return from, m, err
}

// TestRemoteFrameSharesPayloadClass pins the pool's headroom to PRMI's
// envelope: a collective call whose parallel argument packs 2^k bytes for
// each callee — and whose reply packs as many back — crosses comm and a
// session over TCP in a class buffer, the call head with its plan key
// (and, on the first call, the template) included. A frame that fits the
// TCP conn's read-ahead is a view of its slab, which is the class buffer
// and returns to the pool once the connections have closed and every
// view is back; a larger frame is a frame of the payload's own class.
func TestRemoteFrameSharesPayloadClass(t *testing.T) {
	isClass := func(n int) bool {
		b := bufpool.Get(n)
		defer bufpool.Put(b)
		return cap(b) == n
	}
	slabs := bufpool.SlabsOutstanding()
	for _, k := range []int{12, 16, 21} {
		f := sessionFabric(t, 2, 2, 0, false)
		var links []*frameLink
		for _, side := range [][]Link{f.callers, f.callees} {
			for i := range side {
				l := &frameLink{Link: side[i]}
				side[i], links = l, append(links, l)
			}
		}
		// Cyclic(2) callers, Block(2) callees: each caller packs a quarter
		// of the field, 2 bytes per element, for each callee.
		c := newPair22N(t, f, 1<<(k-1))
		wait := c.serve()
		for i := 0; i < 2; i++ {
			for r, err := range c.callBoth([2]float64{1, 1}) {
				if err != nil {
					t.Fatalf("k=%d caller %d: %v", k, r, err)
				}
			}
		}
		c.closePorts(t)
		wait()
		f.close()
		b := bufpool.Get(1 << k)
		want := cap(b)
		bufpool.Put(b)
		payloads := 0
		for _, l := range links {
			for _, s := range l.seen {
				if s[0] != 1<<k {
					continue
				}
				payloads++
				switch {
				case s[2] != 0:
					if !isClass(s[2]) {
						t.Errorf("k=%d: a %d-byte parallel payload arrived in a view of a slab of %d bytes, not a class buffer", k, s[0], s[2])
					}
				case s[1] != want:
					t.Errorf("k=%d: a %d-byte parallel payload arrived in a frame of capacity %d, want its class's %d", k, s[0], s[1], want)
				}
			}
		}
		if payloads != 16 { // 2 calls × 2 callers × 2 callees, each way
			t.Errorf("k=%d: saw %d frames with a %d-byte payload, want 16", k, payloads, 1<<k)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); bufpool.SlabsOutstanding() > slabs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d read-ahead slabs still out after every connection closed", bufpool.SlabsOutstanding()-slabs)
		}
	}
}

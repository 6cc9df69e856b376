package main

import (
	"fmt"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/session"
	"mxn/internal/transport"
)

// ranks drives the rank goroutines of one coupling as a closed loop. Rank
// 0 runs on the caller's goroutine, so a step is timed where it runs;
// ranks 1..n-1 are persistent goroutines that run the same steps when told
// to and then block on their command channel — off the run queue — while
// rank 0 runs the floor. Every step is a round trip, so no rank can run
// more than part of a step ahead and no barrier is needed.
type ranks struct {
	n    int
	body func(rank, step int) error
	cmd  []chan [2]int // first step, step count
	done chan error
	next int
}

func startRanks(n int, body func(rank, step int) error) *ranks {
	rk := &ranks{n: n, body: body, cmd: make([]chan [2]int, n), done: make(chan error, n)}
	for r := 1; r < n; r++ {
		rk.cmd[r] = make(chan [2]int)
		go func(r int) {
			for c := range rk.cmd[r] {
				var err error
				for i := 0; i < c[1] && err == nil; i++ {
					err = body(r, c[0]+i)
				}
				rk.done <- err
			}
		}(r)
	}
	return rk
}

// run executes n steps on every rank and appends rank 0's step times, in
// nanoseconds, to times. It returns the first error of any rank; after an
// error the ranks are out of step and the coupling is unusable.
func (rk *ranks) run(n int, times *[]float64, tr *tracer) error {
	for r := 1; r < rk.n; r++ {
		rk.cmd[r] <- [2]int{rk.next, n}
	}
	var first error
	for i := 0; i < n && first == nil; i++ {
		id := tr.begin("step", rk.next+i, 0)
		t0 := time.Now()
		first = rk.body(0, rk.next+i)
		*times = append(*times, float64(time.Since(t0)))
		tr.end(id)
		tr.sample()
	}
	for r := 1; r < rk.n; r++ {
		if err := <-rk.done; first == nil {
			first = err
		}
	}
	rk.next += n
	return first
}

func (rk *ranks) stop() {
	for r := 1; r < rk.n; r++ {
		close(rk.cmd[r])
	}
}

// fabric is the set of communicator handles a 2+2 coupling runs on: two
// source (or caller) ranks, group ranks 0 and 1, and two destination (or
// callee) ranks, group ranks 2 and 3.
type fabric struct {
	comms   []*comm.Comm // handle of each group rank
	callers []*comm.Comm // group over ranks 0 and 1, for PRMI participation
	close   func()
}

// nSide is the cohort width on each side of every coupling.
const nSide = 2

var allRanks = []int{0, 1, 2, 3}

// newFabric returns the TCP fabric every gated workload runs on or, for
// the per-layer comparison "the same step in one world", a single world.
func newFabric(inproc bool) (*fabric, error) {
	if inproc {
		w := comm.NewWorld(2 * nSide)
		return &fabric{comms: w.Comms(), callers: w.Group(allRanks[:nSide]), close: func() {}}, nil
	}
	return dialFabric()
}

// dialFabric builds two comm worlds — ranks 0 and 1 live in world A, ranks
// 2 and 3 in world B — joined by one session connection over loopback
// TCP, the path ROADMAP calls "what a user actually runs". Both worlds
// live in this process; the traffic between them crosses the host
// loopback interface, not a link.
func dialFabric() (*fabric, error) {
	raw, err := transport.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	lst := session.WrapListener(raw, session.Config{})
	type accepted struct {
		c   transport.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := lst.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := session.Dial("tcp", lst.Addr(), session.Config{})
	if err != nil {
		lst.Close()
		return nil, fmt.Errorf("session dial: %w", err)
	}
	acc := <-ch
	if acc.err != nil {
		cli.Close()
		lst.Close()
		return nil, fmt.Errorf("session accept: %w", acc.err)
	}
	srv := acc.c
	wa, wb := comm.NewWorld(2*nSide), comm.NewWorld(2*nSide)
	pa := wa.ConnectPeer(cli, allRanks[nSide:])
	pb := wb.ConnectPeer(srv, allRanks[:nSide])
	a, b := wa.SharedGroup(1, allRanks), wb.SharedGroup(1, allRanks)
	return &fabric{
		comms:   append(append([]*comm.Comm(nil), a[:nSide]...), b[nSide:]...),
		callers: wa.Group(allRanks[:nSide]),
		close: func() {
			pa.Close()
			pb.Close()
			cli.Close()
			srv.Close()
			lst.Close()
			<-pa.Done()
			<-pb.Done()
		},
	}, nil
}

// drainPool waits until every pooled buffer handed out since baseline is
// back: session acknowledgements are asynchronous, so the last payloads
// return at teardown at the latest.
func drainPool(baseline int64) error {
	deadline := time.Now().Add(10 * time.Second)
	for bufpool.Outstanding() > baseline {
		if time.Now().After(deadline) {
			return fmt.Errorf("bufpool: %d buffers still outstanding after teardown", bufpool.Outstanding()-baseline)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

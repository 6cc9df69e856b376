package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxn/internal/comm"
)

func TestMembershipEpochs(t *testing.T) {
	m := NewMembership(4)
	if m.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", m.Epoch())
	}
	if m.NumAlive() != 4 || !m.IsAlive(2) {
		t.Fatal("fresh membership not all-alive")
	}
	if err := m.DownError(); err != nil {
		t.Fatalf("DownError on all-alive = %v", err)
	}

	if !m.MarkDown(2) {
		t.Fatal("first MarkDown(2) not newly")
	}
	if m.MarkDown(2) {
		t.Fatal("second MarkDown(2) claimed newly")
	}
	if m.Epoch() != 2 {
		t.Fatalf("epoch after one death = %d, want 2", m.Epoch())
	}
	if m.IsAlive(2) || m.NumAlive() != 3 {
		t.Fatal("rank 2 still alive after MarkDown")
	}
	if got := m.Alive(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("Alive = %v", got)
	}
	if got := m.Down(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Down = %v", got)
	}
	mask := m.AliveMask()
	if !mask[0] || mask[2] {
		t.Fatalf("AliveMask = %v", mask)
	}

	var down *ErrRankDown
	if err := m.DownError(); !errors.As(err, &down) || down.Rank != 2 || down.Epoch != 2 {
		t.Fatalf("DownError = %v", err)
	}

	// Out-of-range ranks are dead and unmarkable.
	if m.IsAlive(-1) || m.IsAlive(4) {
		t.Fatal("out-of-range rank alive")
	}
	if m.MarkDown(7) {
		t.Fatal("out-of-range MarkDown claimed newly")
	}
}

func TestHeartbeatsDetectKilledRank(t *testing.T) {
	const n = 3
	w := comm.NewWorld(n)
	cs := w.Comms()
	m := NewMembership(n)
	// 80 ms of tolerated silence: tighter settings false-positive when the
	// whole tree's tests run in parallel and goroutines stall on a loaded
	// scheduler (same tuning as the chaos tests).
	cfg := HeartbeatConfig{Interval: 10 * time.Millisecond, MissThreshold: 8}

	peers := []int{0, 1, 2}
	hbs := make([]*Heartbeater, n)
	for r := 0; r < n; r++ {
		var err error
		hbs[r], err = StartHeartbeats(cs[r], m, cfg, peers)
		if err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for r := 0; r < n; r++ {
			if r != 2 {
				hbs[r].Stop()
			}
		}
	}()

	// Let a few healthy rounds pass; nobody should be marked down.
	time.Sleep(5 * cfg.Interval)
	if m.NumAlive() != n {
		t.Fatalf("healthy cohort lost ranks: alive=%v", m.Alive())
	}

	// Crash rank 2: its responder's echoes stop reaching anyone.
	w.Kill(2)
	hbs[2].Stop()

	deadline := time.Now().Add(5 * time.Second)
	for m.IsAlive(2) && time.Now().Before(deadline) {
		time.Sleep(cfg.Interval)
	}
	if m.IsAlive(2) {
		t.Fatal("rank 2 never detected dead")
	}
	if !m.IsAlive(0) || !m.IsAlive(1) {
		t.Fatalf("false positive: alive=%v", m.Alive())
	}
	if m.Epoch() < 2 {
		t.Fatalf("epoch = %d after a death", m.Epoch())
	}
}

// A live peer whose echoes all come back after 1.5 intervals answers
// every interval with the echo of the ping before, so it stays alive; a
// prober that counted only each ping's own echo would mark it down after
// MissThreshold intervals.
func TestHeartbeatsTolerateLateEchoes(t *testing.T) {
	w := comm.NewWorld(2)
	cs := w.Comms()
	m := NewMembership(2)
	cfg := HeartbeatConfig{Interval: 20 * time.Millisecond, MissThreshold: 3}.withDefaults()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // rank 1's slow responder
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, _, ok := cs[1].RecvTimeout(0, cfg.Tag, cfg.Interval)
			if !ok {
				continue
			}
			ping := v.(heartbeatPing)
			wg.Add(1)
			time.AfterFunc(3*cfg.Interval/2, func() {
				defer wg.Done()
				cs[1].Send(ping.From, cfg.Tag+1, ping.Seq)
			})
		}
	}()
	hb, err := StartHeartbeats(cs[0], m, cfg, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * cfg.Interval)
	alive := m.IsAlive(1)
	hb.Stop()
	close(stop)
	wg.Wait()
	if !alive {
		t.Fatalf("peer echoing 1.5 intervals late marked down: alive=%v", m.Alive())
	}
}

// A detector stopped while it waits for an echo declares no one dead: a
// crashed rank's probers, stopped with it, hear no echoes, and must not
// mark its live peers down on their way out (how TestHeartbeatsDetectKilledRank
// and the chaos rank-crash test saw false positives). Rank 0 never
// answers, so rank 1's first wait, from one interval to two, ends in the
// miss that would reach MissThreshold; Stop comes in the middle of it.
func TestStoppedHeartbeaterDeclaresNoOne(t *testing.T) {
	cs := comm.NewWorld(2).Comms()
	m := NewMembership(2)
	cfg := HeartbeatConfig{Interval: 40 * time.Millisecond, MissThreshold: 1}
	hb, err := StartHeartbeats(cs[1], m, cfg, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * cfg.Interval / 2)
	hb.Stop()
	if !m.IsAlive(0) {
		t.Fatalf("stopped detector marked a peer down: alive=%v", m.Alive())
	}
}

func TestDataReadyRefusesDeadSource(t *testing.T) {
	const m, n, elems = 2, 2, 16
	src, dst := pairHubs(t, m, n, elems)
	srcConn, dstConn, err := Connect("cdead", src, "temp", dst, "temp", ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_ = srcConn

	mb := NewMembership(m)
	mb.MarkDown(1)
	dstConn.SetPeerMembership(mb)
	if got := dstConn.PeerMembership(); got != mb {
		t.Fatal("PeerMembership accessor")
	}

	// Destination rank 1 receives from source rank 1 under the 2×2 block
	// schedule; with source rank 1 dead it must fail typed instead of
	// blocking on a fragment that will never arrive.
	buf := make([]float64, dstConn.local.Template.LocalCount(1))
	_, err = dstConn.DataReady(1, buf)
	var down *ErrRankDown
	if !errors.As(err, &down) {
		t.Fatalf("DataReady with dead source = %v, want *ErrRankDown", err)
	}
	if down.Rank != 1 {
		t.Fatalf("ErrRankDown.Rank = %d, want 1", down.Rank)
	}
}

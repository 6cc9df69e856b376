package comm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mxn/internal/transport"
)

// coupledWorlds builds the canonical ConnectPeer topology: two worlds of
// nA+nB ranks each in the unified rank space, side A owning [0,nA) and
// side B owning [nA,nA+nB), joined over an in-memory transport pipe.
func coupledWorlds(t *testing.T, nA, nB int) (wa, wb *World, pa, pb *RemotePeer) {
	t.Helper()
	total := nA + nB
	wa = NewWorld(total)
	wb = NewWorld(total)
	a, b := transport.Pipe()
	bRanks := make([]int, 0, nB)
	for r := nA; r < total; r++ {
		bRanks = append(bRanks, r)
	}
	aRanks := make([]int, 0, nA)
	for r := 0; r < nA; r++ {
		aRanks = append(aRanks, r)
	}
	pa = wa.ConnectPeer(a, bRanks)
	pb = wb.ConnectPeer(b, aRanks)
	t.Cleanup(func() { pa.Close(); pb.Close() })
	return wa, wb, pa, pb
}

// sharedComms returns the handles of one SharedGroup spanning the whole
// unified rank space on both sides.
func sharedComms(wa, wb *World, id uint64) (csA, csB []*Comm) {
	total := wa.Size()
	ranks := make([]int, total)
	for i := range ranks {
		ranks[i] = i
	}
	return wa.SharedGroup(id, ranks), wb.SharedGroup(id, ranks)
}

func TestConnectPeerForwardsAcrossWorlds(t *testing.T) {
	wa, wb, _, _ := coupledWorlds(t, 2, 2)
	csA, csB := sharedComms(wa, wb, 7)

	// Side A rank 0 sends a spread of generic payload types to side B
	// rank 2, which echoes each back with the same tag.
	payloads := []any{
		int(42), int64(-7), uint64(1 << 60), "hello", 3.5,
		[]float64{1, 2, 3}, []byte{9, 8}, []int{4, 5}, nil, true,
	}
	done := make(chan error, 1)
	go func() {
		c := csB[2]
		for range payloads {
			v, src := c.Recv(0, 1)
			c.Send(src, 2, v)
		}
		done <- nil
	}()
	c := csA[0]
	for i, p := range payloads {
		c.Send(2, 1, p)
		got, src := c.Recv(2, 2)
		if src != 2 {
			t.Fatalf("payload %d: echo source = %d, want 2", i, src)
		}
		switch want := p.(type) {
		case []float64:
			g := got.([]float64)
			if len(g) != len(want) {
				t.Fatalf("payload %d: %v != %v", i, got, p)
			}
		case []byte:
			g := got.([]byte)
			if len(g) != len(want) {
				t.Fatalf("payload %d: %v != %v", i, got, p)
			}
		case []int:
			g := got.([]int)
			if len(g) != len(want) {
				t.Fatalf("payload %d: %v != %v", i, got, p)
			}
		default:
			if got != p {
				t.Fatalf("payload %d: round-tripped %v (%T), want %v (%T)", i, got, got, p, p)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSharedGroupCollectiveSpansWorlds runs a barrier and an allgather
// with two goroutines per side: the collective protocol's internal
// messages (arrivals, results, gathered values) all cross the wire
// through the generic codec.
func TestSharedGroupCollectiveSpansWorlds(t *testing.T) {
	wa, wb, _, _ := coupledWorlds(t, 2, 2)
	csA, csB := sharedComms(wa, wb, 9)

	var wg sync.WaitGroup
	errs := make(chan string, 4)
	body := func(c *Comm) {
		defer wg.Done()
		c.Barrier()
		got := c.Allgather(c.Rank() * 10)
		for r, v := range got {
			if v.(int) != r*10 {
				errs <- "allgather mismatch"
				return
			}
		}
	}
	wg.Add(4)
	go body(csA[0])
	go body(csA[1])
	go body(csB[2])
	go body(csB[3])
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// TestSharedGroupIsolatesTraffic checks that two shared groups over the
// same ranks are distinct traffic domains across the wire, like any two
// communicators.
func TestSharedGroupIsolatesTraffic(t *testing.T) {
	wa, wb, _, _ := coupledWorlds(t, 1, 1)
	g1A, g1B := sharedComms(wa, wb, 1)
	_, g2B := sharedComms(wa, wb, 2)

	g1A[0].Send(1, 5, "group1")
	v, _ := g1B[1].Recv(0, 5)
	if v != "group1" {
		t.Fatalf("group 1 recv = %v", v)
	}
	if tryRecv(g2B[1], 0, 5) {
		t.Fatal("message leaked into a different shared group")
	}
}

func TestConnectPeerLossKillsBoundRanks(t *testing.T) {
	wa, wb, pa, pb := coupledWorlds(t, 2, 2)

	// Tearing down side A's binding closes the pipe: side B's pump sees a
	// closed conn (a permanent loss) and must kill its bound ranks.
	pa.Close()
	select {
	case <-pb.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("peer B never observed the loss")
	}
	if err := pb.Err(); err == nil || !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("peer B error = %v, want ErrClosed", err)
	}
	for r := 0; r < 2; r++ {
		if wb.Alive(r) {
			t.Fatalf("world B rank %d still alive after peer loss", r)
		}
		if wa.Alive(r + 2) {
			t.Fatalf("world A rank %d still alive after Close", r+2)
		}
	}
	// Local ranks stay alive; sends to the lost ranks are dropped, not
	// wedged or panicking.
	if !wb.Alive(2) || !wb.Alive(3) {
		t.Fatal("local ranks died with the peer")
	}
	cs := wb.SharedGroup(3, []int{0, 1, 2, 3})
	cs[2].Send(0, 1, "into the void")
	if tryRecv(cs[2], 0, AnyTag) {
		t.Fatal("received from a dead remote rank")
	}
}

// TestConnectPeerSurvivesWorldGrow checks that Grow preserves remote
// bindings: the grown state must keep forwarding to previously bound
// ranks.
func TestConnectPeerSurvivesWorldGrow(t *testing.T) {
	wa, wb, _, _ := coupledWorlds(t, 1, 1)
	wa.Grow(4) // B's world stays size 2; the shared group spans [0,1]

	csA := wa.SharedGroup(4, []int{0, 1})
	csB := wb.SharedGroup(4, []int{0, 1})
	csA[0].Send(1, 1, "post-grow")
	v, _ := csB[1].Recv(0, 1)
	if v != "post-grow" {
		t.Fatalf("recv after grow = %v", v)
	}
}

func TestConnectPeerRejectsDoubleBinding(t *testing.T) {
	w := NewWorld(2)
	a, b := transport.Pipe()
	defer a.Close()
	defer b.Close()
	rp := w.ConnectPeer(a, []int{1})
	defer rp.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("double binding did not panic")
		}
	}()
	w.ConnectPeer(b, []int{1})
}

// TestRecvOrFailReportsLostBinding: messages that arrived before a binding
// of the group failed are received first, then RecvOrFail and PeerErr
// report the binding's cause — blocking or bounded, without waiting out
// the bound.
func TestRecvOrFailReportsLostBinding(t *testing.T) {
	wa, wb, pa, pb := coupledWorlds(t, 1, 1)
	csA, csB := sharedComms(wa, wb, 7)
	csA[0].Send(1, 3, "one")
	csA[0].Send(1, 3, "two")
	pa.Close() // the pipe drains its queue before reporting the close
	<-pb.Done()
	for _, want := range []string{"one", "two"} {
		if v, from, ok, err := csB[1].RecvOrFail(AnySource, 3, 0); !ok || err != nil || v != want || from != 0 {
			t.Fatalf("queued %q: got %v from %d, ok %v, err %v", want, v, from, ok, err)
		}
	}
	for _, d := range []time.Duration{0, time.Minute} {
		start := time.Now()
		_, _, ok, err := csB[1].RecvOrFail(AnySource, 3, d)
		if ok || !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("RecvOrFail(%v) after the loss: ok %v, err %v, want transport.ErrClosed", d, ok, err)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("RecvOrFail(%v) waited %v for a lost binding", d, time.Since(start))
		}
	}
	if err := csB[1].PeerErr(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("PeerErr = %v, want transport.ErrClosed", err)
	}
}

// TestRecvOrFailWokenByLoss: a receive already blocked when the binding
// fails is woken by the failure.
func TestRecvOrFailWokenByLoss(t *testing.T) {
	wa, wb, pa, _ := coupledWorlds(t, 1, 1)
	_, csB := sharedComms(wa, wb, 8)
	got := make(chan error, 1)
	go func() {
		_, _, _, err := csB[1].RecvOrFail(AnySource, AnyTag, 0)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receive block
	pa.Close()
	select {
	case err := <-got:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("woken receive: %v, want transport.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a blocked RecvOrFail slept through the binding's failure")
	}
}

// TestRecvOrFailIgnoresKill: a rank Killed in this world is not a failed
// binding — RecvOrFail waits out its bound and PeerErr stays nil — and a
// healthy RecvOrFail allocates what Recv does.
func TestRecvOrFailIgnoresKill(t *testing.T) {
	w := NewWorld(3)
	cs := w.Comms()
	w.Kill(2)
	if _, _, ok, err := cs[1].RecvOrFail(AnySource, 0, 10*time.Millisecond); ok || err != nil {
		t.Fatalf("RecvOrFail with a killed in-world rank: ok %v, err %v, want expiry", ok, err)
	}
	if err := cs[1].PeerErr(); err != nil {
		t.Fatalf("PeerErr = %v for an in-world kill", err)
	}
	payload := new(int)
	recv := testing.AllocsPerRun(100, func() {
		cs[0].Send(1, 0, payload)
		cs[1].Recv(0, 0)
	})
	recvOrFail := testing.AllocsPerRun(100, func() {
		cs[0].Send(1, 0, payload)
		cs[1].RecvOrFail(0, 0, 0)
	})
	if recvOrFail > recv {
		t.Fatalf("RecvOrFail allocates %.1f per message, Recv %.1f", recvOrFail, recv)
	}
}

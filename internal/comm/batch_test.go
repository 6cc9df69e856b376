package comm

import (
	"net"
	"sync"
	"testing"
	"time"

	"mxn/internal/transport"
	"mxn/internal/wire"
)

// batchCounter counts the batches a RemotePeer hands its connection.
type batchCounter struct {
	transport.Conn
	mu      sync.Mutex
	batches []int // messages per SendBatch call
}

func (c *batchCounter) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	c.mu.Lock()
	c.batches = append(c.batches, len(msgs))
	c.mu.Unlock()
	return c.Conn.SendBatch(msgs, owned, loans)
}

func (c *batchCounter) take() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.batches
	c.batches = nil
	return b
}

// TestCorkKeepsFIFOPerDestination: a batch mixing in-process and
// peer-bound destinations, between plain sends before Cork and after
// Flush, keeps FIFO order per (source, destination, tag). Corked messages
// to the peer stay off the connection until Flush, which hands them over
// in one call; uncorked sends are batches of one.
func TestCorkKeepsFIFOPerDestination(t *testing.T) {
	const nA, nB = 2, 2
	wa, wb := NewWorld(nA+nB), NewWorld(nA+nB)
	ra, rb := transport.Pipe()
	a := &batchCounter{Conn: ra}
	pa, pb := wa.ConnectPeer(a, []int{2, 3}), wb.ConnectPeer(rb, []int{0, 1})
	defer func() { pa.Close(); pb.Close() }()
	csA, csB := sharedComms(wa, wb, 11)
	c := csA[0]

	// seq[dst][tag] counts what rank 0 sent each destination on each tag.
	var seq [4][2]int
	send := func(dst, tag int) {
		c.Send(dst, tag, seq[dst][tag])
		seq[dst][tag]++
	}
	for _, dst := range []int{1, 2, 3} {
		send(dst, 0)
		send(dst, 1)
	}
	if got := a.take(); len(got) != 4 {
		t.Fatalf("uncorked: %d connection calls %v for 4 peer-bound messages, want 4 of one", len(got), got)
	}
	c.Cork()
	for i := 0; i < 3; i++ {
		for _, dst := range []int{2, 1, 3} {
			send(dst, i%2)
			send(dst, 1-i%2)
		}
	}
	// The peer-bound ones are held; the local ones are already queued.
	if got := a.take(); len(got) != 0 {
		t.Fatalf("corked messages reached the connection before Flush: %v", got)
	}
	c.Flush()
	if got := a.take(); len(got) != 1 || got[0] != 12 {
		t.Fatalf("Flush made connection calls %v, want one of 12 messages", got)
	}
	for _, dst := range []int{3, 2, 1} {
		send(dst, 1)
		send(dst, 0)
	}

	// A corked batch that reaches batchBytes leaves at once, and the
	// handle stays corked.
	a.take()
	c.Cork()
	big := make([]byte, batchBytes/2)
	c.Send(2, 5, big)
	c.Send(3, 5, big)
	c.Send(2, 5, []byte("small"))
	if got := a.take(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("a batch past %d bytes made connection calls %v, want one of 2 messages", batchBytes, got)
	}
	c.Flush()
	if got := a.take(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Flush after an early batch made connection calls %v, want one of 1 message", got)
	}
	for _, dst := range []int{2, 3, 2} {
		if _, _, ok := csB[dst].RecvTimeout(0, 5, 5*time.Second); !ok {
			t.Fatalf("rank %d: a batched message never arrived", dst)
		}
	}

	// Every destination receives, per tag, 0, 1, 2, ... in send order.
	recv := map[int]*Comm{1: csA[1], 2: csB[2], 3: csB[3]}
	for dst, rc := range recv {
		for tag := 0; tag < 2; tag++ {
			for k := 0; k < seq[dst][tag]; k++ {
				p, src, ok := rc.RecvTimeout(0, tag, 5*time.Second)
				if !ok {
					t.Fatalf("rank %d tag %d: message %d never arrived", dst, tag, k)
				}
				if src != 0 || p.(int) != k {
					t.Fatalf("rank %d tag %d: got message %v from %d, want %d from 0", dst, tag, p, src, k)
				}
			}
		}
	}
}

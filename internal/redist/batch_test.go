package redist

import (
	"context"
	"net"
	"sync"
	"testing"

	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// writeCounter counts the frame writes a session makes on its physical
// connection: every one is a SendBatch.
type writeCounter struct {
	transport.Conn
	mu             sync.Mutex
	writes, frames int
}

func (c *writeCounter) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	c.mu.Lock()
	c.writes++
	c.frames += len(msgs)
	c.mu.Unlock()
	return c.Conn.SendBatch(msgs, owned, loans)
}

func (c *writeCounter) take() (writes, frames int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	writes, frames = c.writes, c.frames
	c.writes, c.frames = 0, 0
	return writes, frames
}

// TestRemoteRoundIsOneWritePerSendingRank: a warm 2+2 transfer of 16 KiB
// between two worlds over a TCP session — 4 KiB messages, the shape where
// the fixed cost per message dominates — writes each sending rank's round
// with one frame write: the round is posted into the rank's send batch and
// flushed once, and the session writes the batch's frames, each still its
// own frame, with one writev. Without the batch it was one write per
// message.
func TestRemoteRoundIsOneWritePerSendingRank(t *testing.T) {
	src := tpl(t, []int{2048}, dad.BlockAxis(2))
	dst := tpl(t, []int{2048}, dad.CyclicAxis(2))
	s, err := schedule.Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := session.Listen("tcp", "127.0.0.1:0", session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lst.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := lst.Accept()
		acc <- c
	}()
	var phys *writeCounter
	cli, err := session.NewConn(func(ctx context.Context) (transport.Conn, error) {
		nc, err := transport.DialContext(ctx, "tcp", lst.Addr())
		if err != nil {
			return nil, err
		}
		phys = &writeCounter{Conn: nc}
		return phys, nil
	}, session.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acc
	if srv == nil {
		t.Fatal("session accept failed")
	}
	t.Cleanup(func() { cli.Close(); srv.Close() })

	w := newRemoteWorld(t, cli, srv, s, false)
	for i := 0; i < 5; i++ {
		w.step(t)
	}
	phys.take()
	const runs, sending = 20, 2
	for i := 0; i < runs; i++ {
		w.step(t)
	}
	writes, frames := phys.take()
	if frames != runs*s.NumMessages() {
		t.Fatalf("%d frames for %d Runs of %d messages", frames, runs, s.NumMessages())
	}
	if writes > runs*sending {
		t.Fatalf("%d frame writes for %d Runs: more than one per sending rank (%d messages per Run)", writes, runs, s.NumMessages())
	}
	t.Logf("%d Runs: %d messages in %d frame writes", runs, frames, writes)
	verify(t, dst, w.dst)
}

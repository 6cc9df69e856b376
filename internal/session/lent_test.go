package session

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/faultconn"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// TestLentFrameAckedAtOnce: a lent frame asks for an immediate
// acknowledgement, so a single 8 KiB lent frame with no reverse traffic —
// far below the 16-frame and 256 KiB thresholds that otherwise trigger a
// standalone ack — is released as soon as the peer's session reads it.
func TestLentFrameAckedAtOnce(t *testing.T) {
	baseline := bufpool.Outstanding()
	a, b := sessionConnPair(t)
	l := newTestLoan(payloadBytes(3, 8<<10))
	if err := a.SendBatch([]net.Buffers{{[]byte("lent|")}}, true, []wire.Loan{l}); err != nil {
		t.Fatal(err)
	}
	l.wait(t, "one-way lent frame")
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("lent|"), payloadBytes(3, 8<<10)...); string(got) != string(want) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(want))
	}
	bufpool.PutFrame(got)
	a.Close()
	b.Close()
	poolBalanced(t, baseline)
}

// TestLentViewsReleasedOnCircuitOpen: lent frames the peer never
// acknowledges — the link swallows them — are released exactly once when
// the reconnect budget runs out and the circuit opens, and a lent send
// the open circuit refuses releases its loan at once.
func TestLentViewsReleasedOnCircuitOpen(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxAttempts = 3
	cfg.MaxElapsed = 2 * time.Second
	l, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	startEcho(t, l)
	var raw *faultconn.Conn
	dial := func(ctx context.Context) (transport.Conn, error) {
		if raw != nil {
			return nil, errors.New("link gone")
		}
		c, err := transport.DialContext(ctx, "tcp", l.Addr())
		if err != nil {
			return nil, err
		}
		// The hello goes through; every data frame after it vanishes.
		raw = faultconn.Wrap(c, faultconn.Scenario{Seed: 1, Send: faultconn.Faults{BlackholeAfter: 1}})
		return raw, nil
	}
	c, err := NewConn(dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loans := []*testLoan{newTestLoan(payloadBytes(1, 4096)), newTestLoan(payloadBytes(2, 100000))}
	for _, ln := range loans {
		if err := c.SendBatch([]net.Buffers{{[]byte("h")}}, true, []wire.Loan{ln}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	raw.Partition()
	for i, ln := range loans {
		ln.wait(t, []string{"small", "large"}[i])
	}
	refused := newTestLoan(payloadBytes(4, 64))
	if err := c.SendBatch([]net.Buffers{{[]byte("h")}}, true, []wire.Loan{refused}); !errors.Is(err, ErrPeerLost) {
		t.Fatalf("lent send after the circuit opened = %v, want ErrPeerLost", err)
	}
	if n := refused.n.Load(); n != 1 {
		t.Fatalf("refused lent send released its loan %d times, want 1", n)
	}
}

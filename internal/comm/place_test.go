package comm

import (
	"net"
	"testing"

	"mxn/internal/transport"
	"mxn/internal/wire"
)

// placingPipe is a pipe end that takes a placer, as a session over TCP
// does; the test drives the placer by hand, in the order a reader would.
type placingPipe struct {
	transport.Conn
	pl wire.Placer
}

func (p *placingPipe) SetPlacer(pl wire.Placer) { p.pl = pl }

// testBody is a posted message's codec head: nothing but the payload's
// length prefix.
type testBody struct{ n int }

func (b testBody) EncodePostBody(e *wire.Encoder) { e.PutLoan(nil, b.n) }

// TestPostBetweenLastReadAndUnclaimed: a receive posted after the reader
// last offered a frame, while it read the frame's last bytes, is the
// frame's own receive. The frame arrives pooled, so the posting must not
// stay armed for a later frame with the same head — the next message of
// an unfenced transfer has one — which it would take, and that message
// would be lost or land in the previous run's destination.
func TestPostBetweenLastReadAndUnclaimed(t *testing.T) {
	a, b := transport.Pipe()
	defer b.Close()
	conn := &placingPipe{Conn: a}
	w := NewWorld(2)
	rp := w.ConnectPeer(conn, []int{1})
	defer rp.Close()
	c := w.Comms()[0]
	p := &Posting{From: 1, Tag: 7, Codec: 1, Body: testBody{wire.PlaceMin}, Bytes: wire.PlaceMin, Align: 8,
		Dst: net.Buffers{make([]byte, wire.PlaceMin)}}
	if !c.Post(p) {
		t.Fatal("Post refused over a placing connection")
	}
	frame := make([]byte, len(p.head)+p.Bytes+17)
	copy(frame, p.head)
	c.Withdraw(p)

	// The reader offers the frame while nothing is posted, reads its last
	// bytes, and the receive is posted meanwhile.
	if pl := conn.pl.Claim(frame[:len(p.head)+64], len(frame), nil); pl != nil {
		t.Fatal("claimed with nothing posted")
	}
	if !c.Post(p) {
		t.Fatal("Post refused before the frame was reported")
	}
	conn.pl.Unclaimed(frame)
	if p.state != postSpoiled {
		t.Errorf("posting state %d after its frame arrived unclaimed, want spoiled", p.state)
	}
	// The next message, same head, arrives before this run withdraws.
	if pl := conn.pl.Claim(frame, len(frame), nil); pl != nil {
		t.Fatal("a posting whose frame arrived unclaimed took the next frame")
	}
	c.Withdraw(p)
	if n := rp.reg.busy.Load(); n != 1 {
		t.Errorf("registry holds %d entries after withdrawal, want the one passed frame", n)
	}
}

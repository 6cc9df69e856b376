package transport

import (
	"bytes"
	"net"
	"testing"

	"mxn/internal/bufpool"
)

// testVectored drives the SendV contract on any pair: a vectored send is
// received as the single concatenated message, regardless of segment
// boundaries, interleaved with plain sends on the same conn.
func testVectored(t *testing.T, a, b Conn) {
	t.Helper()
	vw, ok := a.(VectorWriter)
	if !ok {
		t.Fatalf("%T does not implement VectorWriter", a)
	}
	p1, p2, p3 := []byte("alpha-"), []byte("beta-"), []byte("gamma")
	if err := vw.SendV(net.Buffers{p1, nil, p2, p3}); err != nil {
		t.Fatalf("SendV: %v", err)
	}
	if err := a.Send([]byte("plain")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := vw.SendV(net.Buffers{[]byte("solo")}); err != nil {
		t.Fatalf("SendV single: %v", err)
	}
	for _, want := range []string{"alpha-beta-gamma", "plain", "solo"} {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if string(got) != want {
			t.Fatalf("Recv = %q, want %q", got, want)
		}
		bufpool.PutFrame(got)
	}
}

// testOwned drives the SendOwned contract: head+payload arrive as one
// message and the pooled payload is returned exactly once.
func testOwned(t *testing.T, a, b Conn) {
	t.Helper()
	os, ok := a.(OwnedSender)
	if !ok {
		t.Fatalf("%T does not implement OwnedSender", a)
	}
	baseline := bufpool.Outstanding()
	payload := bufpool.Get(96)
	for i := range payload {
		payload[i] = byte(i)
	}
	want := append([]byte("head|"), payload...)
	if err := os.SendOwned([]byte("head|"), payload); err != nil {
		t.Fatalf("SendOwned: %v", err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Recv = %q, want %q", got, want)
	}
	bufpool.PutFrame(got)
	if d := bufpool.Outstanding() - baseline; d > 0 {
		t.Fatalf("payload not returned to pool: %+d outstanding", d)
	}
}

func TestPipeSendV(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	testVectored(t, a, b)
}

func TestPipeSendOwned(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	testOwned(t, a, b)
}

func TestTCPSendV(t *testing.T) {
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	testVectored(t, cli, srv)
}

func TestTCPSendOwned(t *testing.T) {
	cli, srv := tcpPair(t)
	defer cli.Close()
	defer srv.Close()
	testOwned(t, cli, srv)
}

// TestSendOwnedClosedReturnsPayload: ownership transfers even when the
// send is refused — the conn must Put the payload before reporting the
// error, on both transports.
func TestSendOwnedClosedReturnsPayload(t *testing.T) {
	run := func(t *testing.T, c Conn) {
		c.Close()
		baseline := bufpool.Outstanding()
		if err := c.(OwnedSender).SendOwned([]byte("h"), bufpool.Get(64)); err == nil {
			t.Fatal("SendOwned on closed conn succeeded")
		}
		if d := bufpool.Outstanding() - baseline; d > 0 {
			t.Fatalf("payload leaked on refused send: %+d outstanding", d)
		}
	}
	t.Run("pipe", func(t *testing.T) {
		a, b := Pipe()
		defer b.Close()
		run(t, a)
	})
	t.Run("tcp", func(t *testing.T) {
		cli, srv := tcpPair(t)
		defer srv.Close()
		run(t, cli)
	})
}

// TestSendVDoesNotRetainSegments: like Send, SendV must not let the
// receiver observe later mutations of the caller's segments (pipe copies;
// TCP serializes before returning... the frame hits the kernel during the
// call, so post-call mutation is safe there too).
func TestSendVDoesNotRetainSegments(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	seg := []byte("before")
	if err := a.(VectorWriter).SendV(net.Buffers{seg}); err != nil {
		t.Fatal(err)
	}
	copy(seg, "AFTER!")
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before" {
		t.Fatalf("receiver observed sender mutation: %q", got)
	}
	bufpool.PutFrame(got)
}

package session

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
)

// poolBalanced polls until the process-wide bufpool Get/Put balance has
// returned to baseline: replay buffers are freed by asynchronous acks or
// by teardown, so a snapshot taken immediately after the last operation
// can transiently run hot.
func poolBalanced(t *testing.T, baseline int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		// d < 0 means an earlier test's asynchronous teardown freed
		// buffers after our baseline was sampled — not our leak.
		d := bufpool.Outstanding() - baseline
		if d <= 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("bufpool outstanding buffers: %+d vs baseline (borrowed payload leaked or double-freed)", d)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendOwned is an owned SendBatch of one message, head then payload.
func sendOwned(c transport.Conn, head, payload []byte) error {
	return c.SendBatch([]net.Buffers{{head, payload}}, true, nil)
}

// ownedPayload builds a pooled payload the way owned senders do.
func ownedPayload(pattern byte, n int) []byte {
	p := bufpool.Get(n)
	copy(p, payloadBytes(pattern, n))
	return p
}

// payloadBytes is the expected content of ownedPayload(pattern, n),
// built outside the pool so comparisons never touch accounting.
func payloadBytes(pattern byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = pattern ^ byte(i)
	}
	return p
}

// TestSendBatchOwnedRoundTrip: the happy path returns every lent payload to
// the pool once the peer acknowledges (or the session closes), and the
// peer observes head and payload as one contiguous message.
func TestSendBatchOwnedRoundTrip(t *testing.T) {
	baseline := bufpool.Outstanding()

	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	startEcho(t, l)

	c, err := Dial("tcp", l.Addr(), fastCfg())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	const rounds = 40
	for i := 0; i < rounds; i++ {
		head := []byte(fmt.Sprintf("hdr-%03d|", i))
		payload := ownedPayload(byte(i), 100+i)
		want := append(append([]byte(nil), head...), payload...)
		if err := sendOwned(c, head, payload); err != nil {
			t.Fatalf("owned send %d: %v", i, err)
		}
		// payload is no longer ours — verify via the echo only.
		got, err := c.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("echo %d: got % x want % x", i, got, want)
		}
		bufpool.PutFrame(got)
	}
	// Close both ends: teardown must free whatever the asynchronous ack
	// stream had not yet released.
	c.Close()
	l.Close()
	poolBalanced(t, baseline)
}

// TestSendBatchOwnedReplayAcrossFlap: payloads lent to the session survive in
// the replay buffer across a physical-link death and are retransmitted
// bit-identically; the pool balances once the session winds down.
func TestSendBatchOwnedReplayAcrossFlap(t *testing.T) {
	baseline := bufpool.Outstanding()

	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	startEcho(t, l)

	d := &trackedDialer{addr: l.Addr()}
	c, err := NewConn(d.dial, fastCfg())
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}

	const n = 120
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			got, err := c.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			want := append([]byte(fmt.Sprintf("h%04d", i)), payloadBytes(byte(i), 64)...)
			if !bytes.Equal(got, want) {
				recvErr <- fmt.Errorf("echo %d corrupted", i)
				return
			}
			bufpool.PutFrame(got)
		}
		recvErr <- nil
	}()
	for i := 0; i < n; i++ {
		if err := sendOwned(c, []byte(fmt.Sprintf("h%04d", i)), ownedPayload(byte(i), 64)); err != nil {
			t.Fatalf("owned send %d: %v", i, err)
		}
		if i%29 == 11 {
			d.kill() // sever the physical link mid-stream; replay must refill
		}
	}
	select {
	case err := <-recvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for echoes across flaps")
	}
	c.Close()
	l.Close()
	poolBalanced(t, baseline)
}

// TestSendBatchOwnedOnClosedConn: a refused send still consumes the payload —
// the ownership transfer is unconditional, so the caller never has to
// branch on the error to decide who frees.
func TestSendBatchOwnedOnClosedConn(t *testing.T) {
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	startEcho(t, l)
	c, err := Dial("tcp", l.Addr(), fastCfg())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Close()

	baseline := bufpool.Outstanding()
	if err := sendOwned(c, []byte("head"), ownedPayload(7, 256)); err == nil {
		t.Fatal("owned send on closed conn succeeded")
	}
	poolBalanced(t, baseline)
	l.Close()
}

// TestSendBatchOwnedPeerLostTeardown: when the redial budget is spent and the
// session declares the peer lost, every payload parked in the replay
// buffer is returned to the pool by the teardown path.
func TestSendBatchOwnedPeerLostTeardown(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxAttempts = 3
	cfg.MaxElapsed = 2 * time.Second

	l, err := Listen("tcp", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	startEcho(t, l)
	d := &trackedDialer{addr: l.Addr()}
	c, err := NewConn(d.dial, cfg)
	if err != nil {
		t.Fatalf("NewConn: %v", err)
	}

	baseline := bufpool.Outstanding()
	// Lend a few payloads, then take the listener away for good: the
	// replay buffer now holds borrowed payloads that can never be acked.
	for i := 0; i < 8; i++ {
		if err := sendOwned(c, []byte{byte(i)}, ownedPayload(byte(i), 512)); err != nil {
			t.Fatalf("owned send %d: %v", i, err)
		}
	}
	l.Close()
	d.kill()

	// Keep lending until the circuit opens; refused sends must also
	// consume their payloads.
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := sendOwned(c, []byte("x"), ownedPayload(0xEE, 128))
		if err != nil {
			if !errors.Is(err, ErrPeerLost) && !errors.Is(err, transport.ErrClosed) {
				t.Fatalf("owned send error = %v, want peer-lost", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never declared the peer lost")
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Close()
	poolBalanced(t, baseline)
}

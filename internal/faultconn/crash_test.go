package faultconn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
)

// TestCrashAndBlackholeModes is the table test for the two silent fault
// modes: CrashAfter (whole-endpoint crash at a total message count) and
// BlackholeAfter (per-direction one-way partition). Both count
// deterministically, so the same scenario replays identically.
func TestCrashAndBlackholeModes(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		// sendOK / recvOK: messages expected to cross before silence,
		// driving a's Send toward b (sendDir) or b's Send toward a.
		run func(t *testing.T, a *Conn, b transport.Conn)
	}{
		{
			name: "crash-after-total-messages",
			sc:   Scenario{Seed: 41, CrashAfter: 3},
			run: func(t *testing.T, a *Conn, b transport.Conn) {
				// Messages 1-3 (2 sends + 1 recv) pass; the 4th
				// observes the crash.
				for i := 0; i < 2; i++ {
					if err := a.Send([]byte{byte(i)}); err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
					if m, err := recvByte(b); err != nil || m != byte(i) {
						t.Fatalf("recv %d: %v %v", i, m, err)
					}
				}
				if err := b.Send([]byte{100}); err != nil {
					t.Fatal(err)
				}
				if m, err := recvByte(a); err != nil || m != 100 {
					t.Fatalf("third message: %v %v", m, err)
				}
				// Endpoint a is now crashed: its sends are swallowed
				// without error, and its Recv blocks until deadline.
				if err := a.Send([]byte{7}); err != nil {
					t.Fatalf("post-crash send errored: %v", err)
				}
				if !a.Crashed() {
					t.Fatal("Crashed() false after CrashAfter tripped")
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				if m, err := b.(interface {
					RecvContext(context.Context) ([]byte, error)
				}).RecvContext(ctx); err == nil {
					t.Fatalf("peer received %v from crashed endpoint", m)
				}
				if err := b.Send([]byte{8}); err != nil {
					t.Fatal(err)
				}
				ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel2()
				if m, err := a.RecvContext(ctx2); !errors.Is(err, transport.ErrTimeout) {
					t.Fatalf("crashed Recv = %v, %v; want timeout silence", m, err)
				}
			},
		},
		{
			name: "explicit-crash-then-close",
			sc:   Scenario{Seed: 42},
			run: func(t *testing.T, a *Conn, b transport.Conn) {
				a.Crash()
				if err := a.Send([]byte{1}); err != nil {
					t.Fatalf("post-crash send errored: %v", err)
				}
				done := make(chan error, 1)
				go func() {
					_, err := a.Recv()
					done <- err
				}()
				a.Close()
				select {
				case err := <-done:
					if !errors.Is(err, ErrCrashed) || !errors.Is(err, transport.ErrClosed) {
						t.Errorf("Recv after Close = %v, want ErrCrashed (ErrClosed)", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("Close did not unblock crashed Recv")
				}
			},
		},
		{
			name: "blackhole-send-direction",
			sc:   Scenario{Seed: 43, Send: Faults{BlackholeAfter: 2}},
			run: func(t *testing.T, a *Conn, b transport.Conn) {
				for i := 0; i < 2; i++ {
					if err := a.Send([]byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
					if m, err := recvByte(b); err != nil || m != byte(i) {
						t.Fatalf("recv %d: %v %v", i, m, err)
					}
				}
				// Outgoing silence from now on; the reverse direction
				// still flows — the partition is one-way.
				if err := a.Send([]byte{9}); err != nil {
					t.Fatalf("blackholed send errored: %v", err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				if m, err := b.(interface {
					RecvContext(context.Context) ([]byte, error)
				}).RecvContext(ctx); err == nil {
					t.Fatalf("blackholed message %v delivered", m)
				}
				if err := b.Send([]byte{10}); err != nil {
					t.Fatal(err)
				}
				if m, err := recvByte(a); err != nil || m != 10 {
					t.Fatalf("reverse direction broken: %v %v", m, err)
				}
			},
		},
		{
			name: "blackhole-recv-direction",
			sc:   Scenario{Seed: 44, Recv: Faults{BlackholeAfter: 1}},
			run: func(t *testing.T, a *Conn, b transport.Conn) {
				if err := b.Send([]byte{1}); err != nil {
					t.Fatal(err)
				}
				if m, err := recvByte(a); err != nil || m != 1 {
					t.Fatalf("first recv: %v %v", m, err)
				}
				if err := b.Send([]byte{2}); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
				defer cancel()
				if m, err := a.RecvContext(ctx); err == nil {
					t.Fatalf("blackholed inbound message %v delivered", m)
				}
				// Outbound still flows.
				if err := a.Send([]byte{3}); err != nil {
					t.Fatal(err)
				}
				if m, err := recvByte(b); err != nil || m != 3 {
					t.Fatalf("outbound direction broken: %v %v", m, err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe(tc.sc)
			defer a.Close()
			tc.run(t, a, b)
		})
	}
}

// TestCrashReplayDeterminism: the crash point is a pure function of the
// scenario, so two runs see silence begin at the same message.
func TestCrashReplayDeterminism(t *testing.T) {
	crossed := func() int {
		a, b := Pipe(Scenario{Seed: 7, CrashAfter: 5})
		defer a.Close()
		n := 0
		for i := 0; i < 10; i++ {
			if err := a.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			m, err := b.(interface {
				RecvContext(context.Context) ([]byte, error)
			}).RecvContext(ctx)
			cancel()
			bufpool.PutFrame(m)
			if err != nil {
				break
			}
			n++
		}
		return n
	}
	first := crossed()
	if first == 0 || first >= 10 {
		t.Fatalf("crash never engaged (crossed %d)", first)
	}
	if again := crossed(); again != first {
		t.Fatalf("replay crossed %d messages, first run %d", again, first)
	}
}

// recvByte receives a one-byte message, returns its frame to the pool and
// reports the byte.
func recvByte(c transport.Conn) (byte, error) {
	m, err := c.Recv()
	if err != nil {
		return 0, err
	}
	defer bufpool.PutFrame(m)
	if len(m) != 1 {
		return 0, fmt.Errorf("got %d-byte message % x", len(m), m)
	}
	return m[0], nil
}

package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mxn/internal/bufpool"
)

func retryTestPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 10,
		MaxElapsed:  10 * time.Second,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	}
}

// TestDialRetryRacesListenerStartup is the motivating case: the dialer
// starts before the listener exists and must win anyway.
func TestDialRetryRacesListenerStartup(t *testing.T) {
	// Reserve a port, then free it so the first dials are refused.
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := nl.Addr().String()
	nl.Close()

	connected := make(chan error, 1)
	go func() {
		c, err := DialRetry(context.Background(), "tcp", addr, retryTestPolicy())
		if err == nil {
			c.Send([]byte("late but fine"))
			c.Close()
		}
		connected <- err
	}()

	time.Sleep(30 * time.Millisecond) // let a few attempts fail
	l, err := Listen("tcp", addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	acceptErr := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			var m []byte
			m, err = c.Recv()
			bufpool.PutFrame(m)
			c.Close()
		}
		acceptErr <- err
	}()

	for _, ch := range []chan error{connected, acceptErr} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("DialRetry did not connect once the listener appeared")
		}
	}
}

func TestDialRetryExhaustsAttempts(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := nl.Addr().String()
	nl.Close()

	p := retryTestPolicy()
	p.MaxAttempts = 3
	start := time.Now()
	_, err = DialRetry(context.Background(), "tcp", addr, p)
	if err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("DialRetry took %v for 3 short attempts", time.Since(start))
	}
}

func TestDialRetryHonorsContextCancel(t *testing.T) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := nl.Addr().String()
	nl.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := DialRetry(ctx, "tcp", addr, RetryPolicy{
			MaxAttempts: 1000, MaxElapsed: time.Hour,
			BaseBackoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialRetry after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DialRetry ignored context cancellation")
	}
}

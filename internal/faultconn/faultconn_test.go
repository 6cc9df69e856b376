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

func TestNoFaultsPassthrough(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 1})
	defer a.Close()
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("m%d", i)
		if err := a.Send([]byte(want)); err != nil {
			t.Fatal(err)
		}
		m, err := b.Recv()
		if err != nil || string(m) != want {
			t.Fatalf("recv %d: %q, %v", i, m, err)
		}
		bufpool.PutFrame(m)
	}
}

func TestDropAll(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 2, Send: Faults{Drop: 1}})
	defer a.Close()
	for i := 0; i < 10; i++ {
		if err := a.Send([]byte("gone")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.RecvContext(ctx); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("recv with all sends dropped: %v, want ErrTimeout", err)
	}
}

func TestDupAll(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 3, Send: Faults{Dup: 1}})
	defer a.Close()
	if err := a.Send([]byte("twice")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := b.Recv()
		if err != nil || string(m) != "twice" {
			t.Fatalf("copy %d: %q, %v", i, m, err)
		}
		bufpool.PutFrame(m)
	}
}

func TestCorruptAll(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 4, Send: Faults{Corrupt: 1}})
	defer a.Close()
	orig := []byte("pristine")
	if err := a.Send(orig); err != nil {
		t.Fatal(err)
	}
	if string(orig) != "pristine" {
		t.Fatal("corruption mutated the caller's buffer")
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m) == "pristine" {
		t.Fatal("message not corrupted")
	}
	if len(m) != len(orig) {
		t.Fatalf("corruption changed length: %d", len(m))
	}
	bufpool.PutFrame(m)
}

func TestReorderSwapsAdjacent(t *testing.T) {
	// Reorder=1 holds every message until a successor arrives; the final
	// Send with reorder rolled again would hold forever, so use a scenario
	// where only the first roll reorders. With a fixed seed we can instead
	// verify the invariant: all messages sent before a Close-free drain
	// arrive, just not in order.
	a, b := Pipe(Scenario{Seed: 5, Send: Faults{Reorder: 0.5}})
	defer a.Close()
	const n = 40
	sent := map[string]bool{}
	for i := 0; i < n; i++ {
		s := fmt.Sprintf("m%d", i)
		sent[s] = true
		if err := a.Send([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]bool{}
	inOrder := true
	prev := -1
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for len(got) < n {
		m, err := b.RecvContext(ctx)
		if err != nil {
			// Tail messages may be held with no successor; that is the
			// documented routers-queue behavior, not a loss bug.
			if errors.Is(err, transport.ErrTimeout) {
				break
			}
			t.Fatal(err)
		}
		if !sent[string(m)] {
			t.Fatalf("received unsent message %q", m)
		}
		if got[string(m)] {
			t.Fatalf("duplicate delivery of %q without Dup fault", m)
		}
		got[string(m)] = true
		var idx int
		fmt.Sscanf(string(m), "m%d", &idx)
		if idx < prev {
			inOrder = false
		}
		prev = idx
		bufpool.PutFrame(m)
	}
	if inOrder {
		t.Fatal("Reorder=0.5 over 40 messages delivered everything in order")
	}
}

func TestPartitionFailsBothOps(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 6})
	a.Partition()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send after partition: %v", err)
	}
	if _, err := a.Recv(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("recv after partition: %v", err)
	}
	if !errors.Is(ErrPartitioned, transport.ErrClosed) {
		t.Fatal("ErrPartitioned must match transport.ErrClosed")
	}
	// The raw peer sees a closed conn, not a hang.
	if _, err := b.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("peer recv after partition: %v", err)
	}
}

func TestPartitionUnblocksPendingRecv(t *testing.T) {
	a, _ := Pipe(Scenario{Seed: 7})
	done := make(chan error, 1)
	go func() {
		_, err := a.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Recv block
	a.Partition()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPartitioned) {
			t.Fatalf("unblocked recv: %v, want ErrPartitioned", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Partition did not unblock pending Recv")
	}
}

func TestFailAfter(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 8, Send: Faults{FailAfter: 3}})
	defer a.Close()
	for i := 0; i < 3; i++ {
		if err := a.Send([]byte("ok")); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		recvOne(t, b)
	}
	if err := a.Send([]byte("doomed")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("send past FailAfter: %v, want ErrPartitioned", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []string {
		a, b := Pipe(Scenario{Seed: 99, Send: Faults{Drop: 0.3, Dup: 0.3, Corrupt: 0.2}})
		defer a.Close()
		for i := 0; i < 30; i++ {
			if err := a.Send([]byte(fmt.Sprintf("msg-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		var out []string
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		for {
			m, err := b.RecvContext(ctx)
			if err != nil {
				break
			}
			out = append(out, string(m))
			bufpool.PutFrame(m)
		}
		return out
	}
	first := run()
	second := run()
	if len(first) == 0 {
		t.Fatal("fault mix delivered nothing; scenario too aggressive for the test")
	}
	if len(first) != len(second) {
		t.Fatalf("replay length diverged: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %q vs %q", i, first[i], second[i])
		}
	}
}

func TestLatencyDelays(t *testing.T) {
	a, b := Pipe(Scenario{Seed: 10, Send: Faults{Latency: 30 * time.Millisecond}})
	defer a.Close()
	start := time.Now()
	if err := a.Send([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, b)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency fault not applied: %v", elapsed)
	}
}

func TestRecvSideFaults(t *testing.T) {
	// Faults on b's Recv direction: wrap the raw end too.
	pa, pb := transport.Pipe()
	a := Wrap(pa, Scenario{Seed: 11})
	b := Wrap(pb, Scenario{Seed: 12, Recv: Faults{Drop: 1}})
	defer a.Close()
	if err := a.Send([]byte("eaten")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := b.RecvContext(ctx); !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("recv with Recv.Drop=1: %v, want ErrTimeout", err)
	}
}

func TestWrapListener(t *testing.T) {
	inner, err := transport.Listen("inproc", "faultconn-test")
	if err != nil {
		t.Fatal(err)
	}
	l := WrapListener(inner, Scenario{Seed: 13, Send: Faults{Corrupt: 1}})
	defer l.Close()
	if l.Addr() != "faultconn-test" {
		t.Fatalf("addr = %q", l.Addr())
	}
	type res struct {
		c   transport.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	cli, err := transport.Dial("inproc", "faultconn-test")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if err := r.c.Send([]byte("server says")); err != nil {
		t.Fatal(err)
	}
	m, err := cli.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m) == "server says" {
		t.Fatal("accepted conn did not inherit scenario faults")
	}
	bufpool.PutFrame(m)
}

// recvOne receives one message and returns it to the pool.
func recvOne(t *testing.T, c transport.Conn) {
	t.Helper()
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	bufpool.PutFrame(m)
}

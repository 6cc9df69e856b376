package session

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/faultconn"
	"mxn/internal/obs"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// TestConcurrentSendersKeepSequenceOrder: frames that several goroutines
// send on one session reach the wire in the order the session sequenced
// them. A frame written before one sequenced ahead of it is a gap at the
// peer, which takes it for a broken link: a reconnect and a replay that
// nothing but the write order caused.
func TestConcurrentSendersKeepSequenceOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, b := sessionConnPair(t)
	defer b.Close()
	defer a.Close()
	reconnects, replayed := mReconnects.Value(), mFramesReplayed.Value()

	const senders, each = 4, 3000
	done := make(chan error, 1)
	go func() {
		next := make([]uint32, senders)
		for i := 0; i < senders*each; i++ {
			m, err := b.Recv()
			if err != nil {
				done <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			s, k := binary.LittleEndian.Uint32(m), binary.LittleEndian.Uint32(m[4:])
			bufpool.PutFrame(m)
			if s >= senders || k != next[s] {
				done <- fmt.Errorf("message %d of sender %d arrived, want %d", k, s, next[min(s, senders-1)])
				return
			}
			next[s]++
		}
		done <- nil
	}()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var msg [64]byte
			binary.LittleEndian.PutUint32(msg[:], uint32(s))
			for k := 0; k < each; k++ {
				binary.LittleEndian.PutUint32(msg[4:], uint32(k))
				if err := a.Send(msg[:]); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("not every message arrived")
	}
	if d := mReconnects.Value() - reconnects; d != 0 {
		t.Errorf("%d reconnects on a healthy link: frames reached the wire out of sequence order", d)
	}
	if d := mFramesReplayed.Value() - replayed; d != 0 {
		t.Errorf("%d frames replayed on a healthy link", d)
	}
}

// batchCountingConn counts the batches and frames a session writes
// through it.
type batchCountingConn struct {
	transport.Conn
	mu            sync.Mutex
	batches, msgs int
}

func (c *batchCountingConn) SendBatch(msgs []net.Buffers, owned bool, loans []wire.Loan) error {
	c.mu.Lock()
	c.batches++
	c.msgs += len(msgs)
	c.mu.Unlock()
	return c.Conn.SendBatch(msgs, owned, loans)
}

func (c *batchCountingConn) counts() (batches, msgs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.msgs
}

// countedPair is a session over loopback TCP whose dialing side a writes
// through phys, which counts its writes; b is the accepting side. Both
// close when the test ends.
func countedPair(t *testing.T) (a *Conn, b transport.Conn, phys *batchCountingConn) {
	t.Helper()
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, _ := l.Accept()
		acc <- c
	}()
	a, err = NewConn(func(ctx context.Context) (transport.Conn, error) {
		nc, err := transport.DialContext(ctx, "tcp", l.Addr())
		if err != nil {
			return nil, err
		}
		phys = &batchCountingConn{Conn: nc}
		return phys, nil
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if b = <-acc; b == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { b.Close() })
	return a, b, phys
}

// TestSendBatchIsOneWrite: a batch is one write of its frames on the
// physical connection — one writev over TCP — with every message still its
// own frame at the peer.
func TestSendBatchIsOneWrite(t *testing.T) {
	a, b, phys := countedPair(t)

	writes := obs.Default().Counter("wire.writes")
	const n = 8
	batch := make([]net.Buffers, n)
	for i := range batch {
		batch[i] = net.Buffers{[]byte(fmt.Sprintf("head%d|", i)), ownedPayload(byte(i), 100*i)}
	}
	before := writes.Value()
	batches0, msgs0 := phys.counts()
	if err := a.SendBatch(batch, true, nil); err != nil {
		t.Fatal(err)
	}
	batches, msgs := phys.counts()
	if batches-batches0 != 1 || msgs-msgs0 != n {
		t.Fatalf("a batch of %d went out as %d writes of %d frames, want 1 of %d", n, batches-batches0, msgs-msgs0, n)
	}
	if d := writes.Value() - before; d != 1 {
		t.Fatalf("a batch of %d took %d frame writes, want 1", n, d)
	}
	for i := 0; i < n; i++ {
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		want := append([]byte(fmt.Sprintf("head%d|", i)), payloadBytes(byte(i), 100*i)...)
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d arrived as % x, want % x", i, got, want)
		}
		bufpool.PutFrame(got)
	}
}

// TestConcurrentSmallSendsShareWrite is group commit: two goroutines that
// send on one session in the same round put their frames on the wire
// with one write. A send of less than wire.PlaceMin bytes yields once
// between sequencing its frame and writing, so on one processor the other
// sender sequences its frame meanwhile, and whichever writes first writes
// both. Each of 1,000 rounds releases two senders of one 4 KiB frame;
// without the yield every send is a write of its own, 2,000 in all.
func TestConcurrentSmallSendsShareWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, b, phys := countedPair(t)

	const rounds, senders, size = 1000, 2, 4 << 10
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < rounds*senders; i++ {
			m, err := b.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			ok := len(m) == size && m[0] == m[size-1]
			bufpool.PutFrame(m)
			if !ok {
				recvErr <- fmt.Errorf("message %d arrived garbled", i)
				return
			}
		}
		recvErr <- nil
	}()
	var start [senders]chan struct{}
	done := make(chan error, senders)
	for s := range start {
		start[s] = make(chan struct{})
		go func(s int) {
			msg := bytes.Repeat([]byte{byte(s)}, size)
			for range start[s] {
				done <- a.Send(msg)
			}
		}(s)
	}
	batches0, msgs0 := phys.counts()
	for r := 0; r < rounds; r++ {
		for s := range start {
			start[s] <- struct{}{}
		}
		for range start {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := range start {
		close(start[s])
	}
	batches, msgs := phys.counts()
	batches, msgs = batches-batches0, msgs-msgs0
	if msgs != rounds*senders {
		t.Fatalf("%d frames written for %d sends", msgs, rounds*senders)
	}
	t.Logf("%d rounds of %d concurrent sends: %d writes", rounds, senders, batches)
	if batches > rounds*11/10 {
		t.Errorf("%d writes for %d rounds of %d concurrent sends: the senders of a round did not share a write", batches, rounds, senders)
	}
	select {
	case err := <-recvErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("not every message arrived")
	}
}

// TestSendBatchAcrossFlap: batches stay exactly-once and in order while
// the physical link flaps under them — every conn dies after a few
// messages, so batches are cut by failures and replayed frame by frame.
func TestSendBatchAcrossFlap(t *testing.T) {
	baseline := bufpool.Outstanding()
	l, err := Listen("tcp", "127.0.0.1:0", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	startEcho(t, l)
	var dials atomic.Int64
	c, err := NewConn(func(ctx context.Context) (transport.Conn, error) {
		nc, err := transport.DialContext(ctx, "tcp", l.Addr())
		if err != nil {
			return nil, err
		}
		return faultconn.Wrap(nc, faultconn.Scenario{Seed: dials.Add(1), FlapAfter: 23}), nil
	}, fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	reconnects := mReconnects.Value()

	const batches, per = 40, 5
	recvErr := make(chan error, 1)
	go func() {
		for i := 0; i < batches*per; i++ {
			got, err := c.Recv()
			if err != nil {
				recvErr <- fmt.Errorf("Recv %d: %w", i, err)
				return
			}
			want := append([]byte(fmt.Sprintf("h%04d", i)), payloadBytes(byte(i), 48+i%7)...)
			if !bytes.Equal(got, want) {
				recvErr <- fmt.Errorf("echo %d: got %q, want %q", i, got[:min(len(got), 5)], want[:5])
				return
			}
			bufpool.PutFrame(got)
		}
		recvErr <- nil
	}()
	for k := 0; k < batches; k++ {
		batch := make([]net.Buffers, per)
		for j := range batch {
			i := k*per + j
			batch[j] = net.Buffers{[]byte(fmt.Sprintf("h%04d", i)), ownedPayload(byte(i), 48+i%7)}
		}
		if err := c.SendBatch(batch, true, nil); err != nil {
			t.Fatalf("SendBatch %d: %v", k, err)
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
	if mReconnects.Value() == reconnects {
		t.Fatal("the link never flapped under the batches")
	}
	c.Close()
	l.Close()
	poolBalanced(t, baseline)
}

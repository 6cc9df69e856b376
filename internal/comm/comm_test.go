package comm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// watchdog is the per-cohort deadline for tests below: generous next to the
// microsecond message latencies involved, small next to the test binary's
// own timeout, and it buys a goroutine dump instead of a hung binary when a
// collective deadlocks.
const watchdog = 10 * time.Second

func TestSendRecvBasic(t *testing.T) {
	RunTimeout(t, watchdog, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, "hello")
		} else {
			v, src := c.Recv(0, 7)
			if v.(string) != "hello" || src != 0 {
				t.Errorf("got %v from %d, want hello from 0", v, src)
			}
		}
	})
}

func TestRecvTagMatching(t *testing.T) {
	RunTimeout(t, watchdog, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, "one")
			c.Send(1, 2, "two")
			c.Send(1, 3, "three")
		} else {
			// Receive out of send order by tag.
			v2, _ := c.Recv(0, 2)
			v3, _ := c.Recv(0, 3)
			v1, _ := c.Recv(0, 1)
			if v1 != "one" || v2 != "two" || v3 != "three" {
				t.Errorf("tag matching broken: %v %v %v", v1, v2, v3)
			}
		}
	})
}

func TestRecvWildcards(t *testing.T) {
	RunTimeout(t, watchdog, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 5, 10)
		case 1:
			c.Send(2, 5, 11)
		case 2:
			sum := 0
			for i := 0; i < 2; i++ {
				v, src := c.Recv(AnySource, AnyTag)
				sum += v.(int)
				if src != 0 && src != 1 {
					t.Errorf("bad source %d", src)
				}
			}
			if sum != 21 {
				t.Errorf("sum = %d, want 21", sum)
			}
		}
	})
}

func TestFIFOPerPairAndTag(t *testing.T) {
	const n = 100
	RunTimeout(t, watchdog, 2, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 0, i)
			}
		} else {
			for i := 0; i < n; i++ {
				v, _ := c.Recv(0, 0)
				if v.(int) != i {
					t.Fatalf("message %d arrived out of order: got %v", i, v)
				}
			}
		}
	})
}

// tryRecv reports whether a message from group rank from with tag was
// waiting for c, and takes it if one was: the tests' "nothing pending"
// check, which never blocks.
func tryRecv(c *Comm, from, tag int) bool {
	mb, wfrom := c.inbox(from)
	mb.mu.Lock()
	defer mb.mu.Unlock()
	_, ok := mb.match(c.group.gid, wfrom, tag)
	return ok
}

func TestTryRecv(t *testing.T) {
	RunTimeout(t, watchdog, 2, func(c *Comm) {
		if c.Rank() == 0 {
			if tryRecv(c, 1, 0) {
				t.Error("tryRecv returned ok with empty mailbox")
			}
			c.Send(1, 9, "go")
			// Wait for ack so the test is deterministic.
			c.Recv(1, 9)
		} else {
			v, _ := c.Recv(0, 9)
			if v != "go" {
				t.Errorf("got %v", v)
			}
			c.Send(0, 9, "ack")
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 8
	var before, after atomic.Int32
	RunTimeout(t, watchdog, n, func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if got := before.Load(); got != n {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.Rank(), got)
		}
		after.Add(1)
	})
	if after.Load() != n {
		t.Fatalf("only %d ranks finished", after.Load())
	}
}

func TestBcast(t *testing.T) {
	RunTimeout(t, watchdog, 5, func(c *Comm) {
		var v any
		if c.Rank() == 2 {
			v = 42
		}
		got := c.Bcast(2, v)
		if got.(int) != 42 {
			t.Errorf("rank %d: bcast got %v", c.Rank(), got)
		}
	})
}

func TestAllgather(t *testing.T) {
	RunTimeout(t, watchdog, 6, func(c *Comm) {
		all := c.Allgather(c.Rank() * c.Rank())
		for i, v := range all {
			if v.(int) != i*i {
				t.Errorf("rank %d: allgather[%d] = %v", c.Rank(), i, v)
			}
		}
	})
}

func TestAlltoall(t *testing.T) {
	const n = 5
	RunTimeout(t, watchdog, n, func(c *Comm) {
		send := make([]any, n)
		for j := 0; j < n; j++ {
			send[j] = c.Rank()*100 + j
		}
		got := c.Alltoall(send)
		for i := 0; i < n; i++ {
			want := i*100 + c.Rank()
			if got[i].(int) != want {
				t.Errorf("rank %d: alltoall[%d] = %v, want %d", c.Rank(), i, got[i], want)
			}
		}
	})
}

func TestAlltoallvFloat64(t *testing.T) {
	const n = 4
	RunTimeout(t, watchdog, n, func(c *Comm) {
		send := make([][]float64, n)
		for j := 0; j < n; j++ {
			// Variable-length chunks: rank r sends j+1 copies of r to rank j.
			chunk := make([]float64, j+1)
			for k := range chunk {
				chunk[k] = float64(c.Rank())
			}
			send[j] = chunk
		}
		got := c.AlltoallvFloat64(send)
		for i := 0; i < n; i++ {
			if len(got[i]) != c.Rank()+1 {
				t.Fatalf("rank %d: chunk from %d has len %d, want %d", c.Rank(), i, len(got[i]), c.Rank()+1)
			}
			for _, v := range got[i] {
				if v != float64(i) {
					t.Errorf("rank %d: chunk from %d contains %v", c.Rank(), i, v)
				}
			}
		}
	})
}

func TestReduceAndAllreduce(t *testing.T) {
	RunTimeout(t, watchdog, 4, func(c *Comm) {
		v := float64(c.Rank() + 1) // 1,2,3,4
		if got := c.AllreduceFloat64(v, OpSum); got != 10 {
			t.Errorf("allreduce sum = %v", got)
		}
		if got := c.AllreduceFloat64(v, OpMax); got != 4 {
			t.Errorf("allreduce max = %v", got)
		}
		if got := c.AllreduceFloat64(v, OpMin); got != 1 {
			t.Errorf("allreduce min = %v", got)
		}
		if got := c.AllreduceInt(c.Rank(), OpSum); got != 6 {
			t.Errorf("allreduce int sum = %v", got)
		}
	})
}

func TestSubCommunicator(t *testing.T) {
	RunTimeout(t, watchdog, 6, func(c *Comm) {
		// Evens form a subgroup.
		sub := c.Sub([]int{0, 2, 4})
		if c.Rank()%2 == 1 {
			if sub != nil {
				t.Errorf("odd rank %d got a sub-communicator", c.Rank())
			}
			return
		}
		if sub == nil {
			t.Fatalf("even rank %d got nil sub-communicator", c.Rank())
		}
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			t.Errorf("sub rank = %d, want %d", sub.Rank(), wantRank)
		}
		// Collectives on the subgroup must only involve the subgroup.
		total := sub.AllreduceInt(c.Rank(), OpSum)
		if total != 6 { // 0+2+4
			t.Errorf("sub allreduce = %d", total)
		}
	})
}

func TestSubThenParentStillWorks(t *testing.T) {
	RunTimeout(t, watchdog, 4, func(c *Comm) {
		sub := c.Sub([]int{1, 3})
		c.Barrier()
		if sub != nil {
			sub.Barrier()
		}
		got := c.AllreduceInt(1, OpSum)
		if got != 4 {
			t.Errorf("parent allreduce after Sub = %d", got)
		}
	})
}

func TestWorldGroupOrdering(t *testing.T) {
	w := NewWorld(4)
	// Group with permuted ranks: group rank 0 is world rank 3.
	cs := w.Group([]int{3, 1, 0})
	if cs[0].WorldRank() != 3 || cs[2].WorldRank() != 0 {
		t.Fatalf("group ordering wrong: %d %d", cs[0].WorldRank(), cs[2].WorldRank())
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		cs[0].Send(2, 0, "x")
	}()
	go func() {
		defer wg.Done()
		v, src := cs[2].Recv(0, 0)
		if v != "x" || src != 0 {
			t.Errorf("got %v from %d", v, src)
		}
	}()
	wg.Wait()
}

func TestBlockingRecvActuallyBlocks(t *testing.T) {
	w := NewWorld(2)
	cs := w.Comms()
	done := make(chan struct{})
	go func() {
		cs[1].Recv(0, 0)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Recv returned with no message")
	case <-time.After(20 * time.Millisecond):
	}
	cs[0].Send(1, 0, nil)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Recv did not wake after Send")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewWorld(0)", func() { NewWorld(0) })
	w := NewWorld(2)
	cs := w.Comms()
	mustPanic("negative tag", func() { cs[0].Send(1, -1, nil) })
	mustPanic("send out of range", func() { cs[0].Send(5, 0, nil) })
	mustPanic("group out of range", func() { w.Group([]int{9}) })
}

func TestCommunicatorIsolation(t *testing.T) {
	// Two groups over the same world ranks are isolated traffic domains:
	// a message sent on one must never match a receive on the other, even
	// with identical (source, tag).
	w := NewWorld(2)
	g1 := w.Group([]int{0, 1})
	g2 := w.Group([]int{0, 1})
	g1[0].Send(1, 5, "on-g1")
	g2[0].Send(1, 5, "on-g2")
	if v, _ := g2[1].Recv(0, 5); v != "on-g2" {
		t.Errorf("g2 recv got %v", v)
	}
	if v, _ := g1[1].Recv(0, 5); v != "on-g1" {
		t.Errorf("g1 recv got %v", v)
	}
	// Concurrent collectives on both groups do not interfere.
	var wg sync.WaitGroup
	for _, cs := range [][]*Comm{g1, g2} {
		for _, c := range cs {
			wg.Add(1)
			go func(c *Comm) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if got := c.AllreduceInt(c.Rank(), OpSum); got != 1 {
						t.Errorf("allreduce = %d", got)
						return
					}
				}
			}(c)
		}
	}
	wg.Wait()
}

func TestSplit(t *testing.T) {
	RunTimeout(t, watchdog, 6, func(c *Comm) {
		// Evens form color 0, odds color 1.
		sub := c.Split(c.Rank() % 2)
		if sub == nil {
			t.Errorf("rank %d got nil", c.Rank())
			return
		}
		if sub.Size() != 3 {
			t.Errorf("rank %d: size %d", c.Rank(), sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d, want %d", c.Rank(), sub.Rank(), want)
		}
		// Collectives stay within the color.
		sum := sub.AllreduceInt(c.Rank(), OpSum)
		want := 6 // 0+2+4
		if c.Rank()%2 == 1 {
			want = 9 // 1+3+5
		}
		if sum != want {
			t.Errorf("rank %d: sum %d, want %d", c.Rank(), sum, want)
		}
	})
}

func TestSplitOptOut(t *testing.T) {
	RunTimeout(t, watchdog, 4, func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1 // opts out
		}
		sub := c.Split(color)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("opted-out rank got a communicator")
			}
			return
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: sub = %v", c.Rank(), sub)
		}
	})
}

func TestSplitAllDistinctColors(t *testing.T) {
	RunTimeout(t, watchdog, 3, func(c *Comm) {
		sub := c.Split(c.Rank() * 10)
		if sub == nil || sub.Size() != 1 || sub.Rank() != 0 {
			t.Errorf("rank %d: singleton split wrong", c.Rank())
		}
	})
}

func TestRecvTimeoutExpires(t *testing.T) {
	w := NewWorld(2)
	cs := w.Comms()
	start := time.Now()
	if _, _, ok := cs[1].RecvTimeout(0, 0, 30*time.Millisecond); ok {
		t.Fatal("RecvTimeout returned ok with no message")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("RecvTimeout returned before the timeout")
	}
}

func TestRecvTimeoutDelivers(t *testing.T) {
	RunTimeout(t, watchdog, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 3, "prompt")
		} else {
			v, src, ok := c.RecvTimeout(0, 3, watchdog)
			if !ok || v != "prompt" || src != 0 {
				t.Errorf("RecvTimeout = %v, %d, %v", v, src, ok)
			}
		}
	})
}

func TestRecvTimeoutWakesOnLateMessage(t *testing.T) {
	w := NewWorld(2)
	cs := w.Comms()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cs[0].Send(1, 0, "late")
	}()
	v, _, ok := cs[1].RecvTimeout(0, 0, watchdog)
	if !ok || v != "late" {
		t.Fatalf("RecvTimeout = %v, %v", v, ok)
	}
}

func TestRunTimeoutReportsDeadlock(t *testing.T) {
	// Drive the watchdog with a rigged testing.TB and a genuinely
	// deadlocked cohort (both ranks receive, nobody sends).
	rec := &recordingTB{TB: t}
	RunTimeout(rec, 50*time.Millisecond, 2, func(c *Comm) {
		c.Recv(1-c.Rank(), 0)
	})
	if !rec.failed {
		t.Fatal("watchdog did not fire on a deadlocked cohort")
	}
	if !strings.Contains(rec.message, "goroutine") {
		t.Fatalf("watchdog report lacks a goroutine dump:\n%s", rec.message)
	}
}

// recordingTB captures Fatalf instead of aborting, so the watchdog's
// failure path itself can be tested.
type recordingTB struct {
	testing.TB
	failed  bool
	message string
}

func (r *recordingTB) Fatalf(format string, args ...any) {
	r.failed = true
	r.message = fmt.Sprintf(format, args...)
}

func (r *recordingTB) Helper() {}

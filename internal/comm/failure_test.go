package comm

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestKillDropsTraffic(t *testing.T) {
	w := NewWorld(3)
	cs := w.Comms()

	// A message queued before the crash is discarded with the mailbox.
	cs[0].Send(1, 7, "doomed")
	if !w.Alive(1) {
		t.Fatal("rank 1 reported dead before Kill")
	}
	w.Kill(1)
	w.Kill(1) // idempotent
	if w.Alive(1) {
		t.Fatal("rank 1 reported alive after Kill")
	}
	if tryRecv(cs[1], AnySource, AnyTag) {
		t.Fatal("queued message survived Kill")
	}

	// New traffic to the dead rank vanishes.
	cs[0].Send(1, 7, "late")
	if tryRecv(cs[1], AnySource, AnyTag) {
		t.Fatal("message delivered to dead rank")
	}

	// Traffic from the dead rank vanishes too.
	cs[1].Send(2, 7, "ghost")
	if _, _, ok := cs[2].RecvTimeout(1, 7, 30*time.Millisecond); ok {
		t.Fatal("message delivered from dead rank")
	}

	// Survivors keep talking.
	cs[0].Send(2, 7, "fine")
	if v, _, ok := cs[2].RecvTimeout(0, 7, watchdog); !ok || v != "fine" {
		t.Fatalf("survivor traffic lost: %v, %v", v, ok)
	}
}

func TestBarrierTimeoutAllArrive(t *testing.T) {
	w := NewWorld(4)
	cs := w.Comms()
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			missing, err := c.BarrierTimeout(watchdog)
			if len(missing) != 0 {
				t.Errorf("rank %d: missing = %v, want none", i, missing)
			}
			errs[i] = err
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("rank %d: BarrierTimeout = %v", i, err)
		}
	}
}

func TestBarrierTimeoutReportsMissingRank(t *testing.T) {
	w := NewWorld(4)
	cs := w.Comms()
	w.Kill(2)
	var wg sync.WaitGroup
	for i, c := range cs {
		if i == 2 {
			continue
		}
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			// Generous timeout: the non-root grace window is 2·d+500ms,
			// and under a fully loaded test machine (all packages in
			// parallel) the root goroutine can stall long enough to blow
			// a tight budget and misreport RootLost.
			missing, err := c.BarrierTimeout(300 * time.Millisecond)
			var bte *BarrierTimeoutError
			if !errors.As(err, &bte) {
				t.Errorf("rank %d: err = %v, want *BarrierTimeoutError", i, err)
				return
			}
			if bte.RootLost {
				t.Errorf("rank %d: RootLost with live root", i)
				return
			}
			if len(missing) != 1 || missing[0] != 2 {
				t.Errorf("rank %d: missing = %v, want [2]", i, missing)
			}
		}(i, c)
	}
	wg.Wait()
}

func TestBarrierTimeoutRootLost(t *testing.T) {
	w := NewWorld(3)
	cs := w.Comms()
	w.Kill(0)
	var wg sync.WaitGroup
	for i, c := range cs {
		if i == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			_, err := c.BarrierTimeout(50 * time.Millisecond)
			var bte *BarrierTimeoutError
			if !errors.As(err, &bte) || !bte.RootLost {
				t.Errorf("rank %d: err = %v, want RootLost", i, err)
			}
		}(i, c)
	}
	wg.Wait()
}

package comm

import (
	"testing"
)

func TestWorldGrowAddsRanks(t *testing.T) {
	w := NewWorld(2)
	old := w.Comms()

	added := w.Grow(4)
	if len(added) != 2 || added[0] != 2 || added[1] != 3 {
		t.Fatalf("Grow returned %v, want [2 3]", added)
	}
	if w.Size() != 4 {
		t.Fatalf("world size %d after grow, want 4", w.Size())
	}
	if w.Grow(4) != nil {
		t.Fatal("no-op grow returned added ranks")
	}

	// Communicators created before the grow keep working: groups are
	// fixed rank lists, untouched by new world ranks.
	done := make(chan struct{})
	go func() {
		defer close(done)
		old[0].Send(1, 7, 42)
	}()
	if v, _ := old[1].Recv(0, 7); v.(int) != 42 {
		t.Fatal("pre-grow communicator lost a message")
	}
	<-done

	// A group spanning old and new ranks exchanges both ways.
	cs := w.Group([]int{0, 1, 2, 3})
	go cs[3].Send(0, 9, "hello")
	if v, _ := cs[0].Recv(3, 9); v.(string) != "hello" {
		t.Fatal("joiner→old message lost")
	}
	go cs[0].Send(2, 9, "back")
	if v, _ := cs[2].Recv(0, 9); v.(string) != "back" {
		t.Fatal("old→joiner message lost")
	}
}

func TestWorldGrowRejectsShrink(t *testing.T) {
	w := NewWorld(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Grow to a smaller world did not panic")
		}
	}()
	w.Grow(2)
}

func TestWorldKillSurvivesGrow(t *testing.T) {
	// Death flags are shared by pointer across world snapshots: a rank
	// killed before a grow stays dead after it, and a kill through a
	// pre-grow snapshot is seen by post-grow communicators.
	w := NewWorld(3)
	pre := w.Comms()
	w.Kill(1)
	w.Grow(5)
	if w.Alive(1) {
		t.Fatal("grow resurrected a dead rank")
	}
	if !w.Alive(3) || !w.Alive(4) {
		t.Fatal("joiners not alive")
	}
	w.Kill(0)
	if w.Alive(0) {
		t.Fatal("kill after grow not observed")
	}
	// Sends to and from dead ranks are dropped, not delivered.
	post := w.Group([]int{0, 1, 2, 3, 4})
	post[2].Send(1, 5, "lost")
	post[0].Send(2, 5, "from the dead")
	if tryRecv(post[1], 2, 5) {
		t.Fatal("message delivered to dead rank")
	}
	if tryRecv(post[2], 0, 5) {
		t.Fatal("message delivered from dead rank")
	}
	_ = pre
}

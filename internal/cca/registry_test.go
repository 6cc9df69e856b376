package cca

import (
	"errors"
	"testing"
	"time"
)

func TestRegistryPlacement(t *testing.T) {
	r := NewRegistry(3)
	if _, err := r.Place("a", []int{0, 1}, nil); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name  string
		ranks []int
	}{
		{"a", []int{2}},  // duplicate name
		{"b", nil},       // no ranks
		{"b", []int{3}},  // outside the world
		{"b", []int{-1}}, // outside the world
		{"b", []int{1}},  // rank already hosts a
	} {
		if _, err := r.Place(bad.name, bad.ranks, nil); err == nil {
			t.Errorf("Place(%q, %v) accepted", bad.name, bad.ranks)
		}
	}
	c, err := r.Place("b", []int{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ranks[0] != 2 || len(c.Comms) != 1 || c.Gone.Size() != 1 {
		t.Errorf("cohort b = %+v", c)
	}
}

func TestRegistryConnect(t *testing.T) {
	r := NewRegistry(4)
	r.Place("u", []int{0, 1}, nil)
	r.Place("v", []int{2}, nil)
	r.Place("p", []int{3}, nil)
	r.Declare("u", false, "x", "T")
	r.Declare("v", false, "x", "T")
	r.Declare("p", true, "x", "T")
	if err := r.Declare("p", true, "x", "T"); err == nil {
		t.Error("duplicate declaration accepted")
	}
	if err := r.Connect("u", "x", "p", "x"); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect("u", "x", "p", "x"); err == nil {
		t.Error("second connection of a uses port accepted")
	}
	k, err := r.ConnOf(r.cohorts["p"], true, "x")
	if err != nil {
		t.Fatal(err)
	}
	// The connection's group holds the user's ranks, then the provider's.
	if len(k.Group) != 3 || k.Group[0].WorldRank() != 0 || k.Group[2].WorldRank() != 3 {
		t.Errorf("group world ranks wrong: %d members", len(k.Group))
	}
	if err := r.Connect("v", "x", "p", "x"); err != nil {
		t.Errorf("second user of a provides port refused: %v", err)
	}
	r.Exclusive = true
	r.Declare("p", true, "y", "T")
	r.Declare("u", false, "y", "T")
	r.Declare("v", false, "y", "T")
	if err := r.Connect("u", "y", "p", "y"); err != nil {
		t.Fatal(err)
	}
	if err := r.Connect("v", "y", "p", "y"); err == nil {
		t.Error("exclusive provides port took a second connection")
	}
}

// TestRunRecordsExitsAfterErrors checks the order a waiting caller relies
// on: a rank's error is Run's before the rank is marked Gone.
func TestRunRecordsExitsAfterErrors(t *testing.T) {
	r := NewRegistry(2)
	boom := errors.New("provider failed")
	prov, _ := r.Place("p", []int{1}, func(*Cohort, int) error { return boom })
	var sawGone bool
	r.Place("u", []int{0}, func(*Cohort, int) error {
		for prov.Gone.IsAlive(0) {
			time.Sleep(time.Millisecond)
		}
		sawGone = true
		return errors.New("caller saw the provider gone")
	})
	if err := r.Run(); !errors.Is(err, boom) {
		t.Errorf("Run = %v, want the provider's error first", err)
	}
	if !sawGone || prov.Gone.IsAlive(0) {
		t.Error("exited provider rank not marked Gone")
	}
}

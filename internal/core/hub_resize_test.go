package core

import (
	"errors"
	"sort"
	"sync"
	"testing"

	"mxn/internal/dad"
)

func hubField(t *testing.T, name string, dims []int, ax dad.AxisDist) *dad.Descriptor {
	t.Helper()
	tp, err := dad.NewTemplate(dims, []dad.AxisDist{ax})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dad.NewDescriptor(name, dad.Float64, dad.ReadWrite, tp)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHubResizeReblocksAllFields(t *testing.T) {
	h := NewHub("sim", 4, nil)
	if err := h.Register(hubField(t, "temperature", []int{32}, dad.BlockAxis(4))); err != nil {
		t.Fatal(err)
	}
	if err := h.Register(hubField(t, "pressure", []int{20}, dad.CyclicAxis(4))); err != nil {
		t.Fatal(err)
	}
	if err := h.Resize(6); err != nil {
		t.Fatal(err)
	}
	if h.NumProcs() != 6 {
		t.Fatalf("hub width %d after resize, want 6", h.NumProcs())
	}
	// Every field is re-derived over the new width, same family — this is
	// what a joining rank reads to bootstrap its local buffers.
	temp, ok := h.Field("temperature")
	if !ok {
		t.Fatal("temperature lost by resize")
	}
	if temp.Template.NumProcs() != 6 {
		t.Fatalf("temperature spans %d ranks, want 6", temp.Template.NumProcs())
	}
	wantT, _ := dad.NewTemplate([]int{32}, []dad.AxisDist{dad.BlockAxis(6)})
	if temp.Template.Key() != wantT.Key() {
		t.Fatalf("temperature reblocked to %q", temp.Template.Key())
	}
	joinerElems := temp.Template.LocalCount(5)
	if joinerElems != 32-5*6 { // ceil(32/6)=6 per rank, tail rank gets 2
		t.Fatalf("joining rank owns %d elements, want 2", joinerElems)
	}
	press, _ := h.Field("pressure")
	if press.Template.NumProcs() != 6 {
		t.Fatal("pressure not reblocked")
	}
	names := h.Fields()
	sort.Strings(names)
	if len(names) != 2 || names[0] != "pressure" || names[1] != "temperature" {
		t.Fatalf("Fields() = %v", names)
	}
	// Resize to the current width is a no-op.
	if err := h.Resize(6); err != nil {
		t.Fatal(err)
	}
	// New registrations must match the new width.
	if err := h.Register(hubField(t, "late", []int{12}, dad.BlockAxis(4))); err == nil {
		t.Fatal("old-width registration accepted after resize")
	}
}

func TestHubResizeAllOrNothing(t *testing.T) {
	h := NewHub("sim", 2, nil)
	if err := h.Register(hubField(t, "good", []int{16}, dad.BlockAxis(2))); err != nil {
		t.Fatal(err)
	}
	// An implicit owner map cannot be re-derived, so the whole resize
	// must fail and leave every field at the old width.
	if err := h.Register(hubField(t, "stuck", []int{4}, dad.ImplicitAxis(2, []int{0, 1, 1, 0}))); err != nil {
		t.Fatal(err)
	}
	err := h.Resize(3)
	var rbErr *dad.ReblockError
	if !errors.As(err, &rbErr) {
		t.Fatalf("resize over implicit field: err = %v, want wrapped *dad.ReblockError", err)
	}
	if h.NumProcs() != 2 {
		t.Fatalf("failed resize changed width to %d", h.NumProcs())
	}
	good, _ := h.Field("good")
	if good.Template.NumProcs() != 2 {
		t.Fatal("failed resize mutated a field")
	}
	if err := h.Resize(0); err == nil {
		t.Fatal("nonpositive width accepted")
	}
	if _, ok := h.Field("missing"); ok {
		t.Fatal("Field invented a descriptor")
	}
}

// An established connection keeps its own cohort across Hub.Resize: the
// old ranks still transfer, and a rank only the resized hub has is
// refused with an error instead of indexing past the connection's
// per-rank state.
func TestConnectionKeepsCohortAcrossHubResize(t *testing.T) {
	src, dst := pairHubs(t, 2, 2, 8)
	srcConn, dstConn, err := Connect("rz", src, "temp", dst, "temp", ConnOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Hub{src, dst} {
		if err := h.Resize(3); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []*Connection{srcConn, dstConn} {
		if _, err := c.DataReady(2, make([]float64, 3)); err == nil {
			t.Errorf("%v connection accepted rank 2 of a 2-rank cohort", c.Dir())
		}
	}
	var wg sync.WaitGroup
	got := make([][]float64, 2)
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			local := make([]float64, 4)
			for i := range local {
				local[i] = float64(4*r + i)
			}
			if _, err := srcConn.DataReady(r, local); err != nil {
				t.Error(err)
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			got[r] = make([]float64, 4)
			if _, err := dstConn.DataReady(r, got[r]); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	for r, g := range got {
		for i, v := range g {
			if v != float64(4*r+i) {
				t.Fatalf("rank %d element %d = %v after hub resize", r, i, v)
			}
		}
	}
}

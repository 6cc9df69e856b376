package linear

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mxn/internal/dad"
)

func TestNewSetNormalizes(t *testing.T) {
	s := NewSet(Interval{5, 8}, Interval{0, 3}, Interval{3, 5}, Interval{10, 10}, Interval{12, 14})
	want := Set{{0, 8}, {12, 14}}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("got %v, want %v", s, want)
	}
	if s.Len() != 10 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestSetIntersectUnion(t *testing.T) {
	a := NewSet(Interval{0, 10}, Interval{20, 30})
	b := NewSet(Interval{5, 25})
	gotI := a.Intersect(b)
	if !reflect.DeepEqual(gotI, Set{{5, 10}, {20, 25}}) {
		t.Errorf("intersect = %v", gotI)
	}
	// A union is NewSet over both sets' intervals.
	gotU := NewSet(append(append([]Interval(nil), a...), b...)...)
	if !reflect.DeepEqual(gotU, Set{{0, 30}}) {
		t.Errorf("union = %v", gotU)
	}
	if got := a.Intersect(nil); len(got) != 0 {
		t.Errorf("intersect empty = %v", got)
	}
}

// contains reports whether position p is in the set.
func contains(s Set, p int) bool {
	for _, iv := range s {
		if iv.Lo <= p && p < iv.Hi {
			return true
		}
	}
	return false
}

// Property: intersect is consistent with membership, on random sets.
func TestQuickSetAlgebra(t *testing.T) {
	mk := func(seeds []uint8) Set {
		var ivs []Interval
		for i := 0; i+1 < len(seeds); i += 2 {
			lo := int(seeds[i]) % 64
			hi := lo + int(seeds[i+1])%8
			ivs = append(ivs, Interval{lo, hi})
		}
		return NewSet(ivs...)
	}
	f := func(x, y []uint8) bool {
		a, b := mk(x), mk(y)
		i := a.Intersect(b)
		for p := 0; p < 80; p++ {
			if contains(i, p) != (contains(a, p) && contains(b, p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func block2D(t *testing.T, dims []int, p, q int) *dad.Template {
	t.Helper()
	tpl, err := dad.NewTemplate(dims, []dad.AxisDist{dad.BlockAxis(p), dad.BlockAxis(q)})
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestRowMajorOwnedByPartition(t *testing.T) {
	tpl := block2D(t, []int{6, 8}, 2, 2)
	rm := NewRowMajor(tpl)
	var union Set
	total := 0
	for r := 0; r < tpl.NumProcs(); r++ {
		s := rm.OwnedBy(r)
		if got := s.Intersect(union); got.Len() != 0 {
			t.Errorf("rank %d overlaps earlier ranks: %v", r, got)
		}
		union = NewSet(append(union, s...)...)
		total += s.Len()
	}
	if total != 48 || !reflect.DeepEqual(union, Set{{0, 48}}) {
		t.Errorf("partition broken: total=%d union=%v", total, union)
	}
}

// pack gathers the elements at set's positions, in position order, out of
// rank's local buffer, and unpack scatters them back: what a schedule
// lowered from the linearizer moves for one pair.
func pack(l Linearizer, rank int, local []float64, set Set) []float64 {
	var out []float64
	for _, iv := range set {
		for p := iv.Lo; p < iv.Hi; p++ {
			out = append(out, local[l.Offset(rank, p)])
		}
	}
	return out
}

func unpack(l Linearizer, rank int, local []float64, set Set, data []float64) {
	k := 0
	for _, iv := range set {
		for p := iv.Lo; p < iv.Hi; p++ {
			local[l.Offset(rank, p)] = data[k]
			k++
		}
	}
}

// Offset maps each rank's owned positions one-to-one onto its canonical
// local buffer, each position to where the template keeps its global
// index: packing a rank's whole set and unpacking it restores its buffer.
func TestRowMajorPackUnpackRoundTrip(t *testing.T) {
	tpl := block2D(t, []int{4, 6}, 2, 3)
	rm := NewRowMajor(tpl)
	for r := 0; r < tpl.NumProcs(); r++ {
		owned := rm.OwnedBy(r)
		for _, iv := range owned {
			for p := iv.Lo; p < iv.Hi; p++ {
				if got, want := rm.Offset(r, p), tpl.LocalOffset(r, []int{p / 6, p % 6}); got != want {
					t.Fatalf("rank %d: Offset(%d) = %d, want %d", r, p, got, want)
				}
			}
		}
		local := make([]float64, tpl.LocalCount(r))
		for i := range local {
			local[i] = float64(r*100 + i)
		}
		packed := pack(rm, r, local, owned)
		if len(packed) != len(local) {
			t.Fatalf("rank %d: packed %d of %d elements", r, len(packed), len(local))
		}
		restored := make([]float64, len(local))
		unpack(rm, r, restored, owned, packed)
		for i := range local {
			if restored[i] != local[i] {
				t.Fatalf("rank %d: restored[%d] = %v, want %v", r, i, restored[i], local[i])
			}
		}
	}
}

func TestRowMajorPackSubset(t *testing.T) {
	// 1-D array of 8 on 2 blocks; pack positions {1,2,6} and check values.
	tpl, err := dad.NewTemplate([]int{8}, []dad.AxisDist{dad.BlockAxis(2)})
	if err != nil {
		t.Fatal(err)
	}
	rm := NewRowMajor(tpl)
	// Global values: v[g] = 10*g. Rank 0 holds g 0..3, rank 1 holds 4..7.
	local0 := []float64{0, 10, 20, 30}
	local1 := []float64{40, 50, 60, 70}
	want := NewSet(Interval{1, 3}, Interval{6, 7})
	out0 := pack(rm, 0, local0, want.Intersect(rm.OwnedBy(0)))
	out1 := pack(rm, 1, local1, want.Intersect(rm.OwnedBy(1)))
	if !reflect.DeepEqual(out0, []float64{10, 20}) {
		t.Errorf("rank 0 packed %v", out0)
	}
	if !reflect.DeepEqual(out1, []float64{60}) {
		t.Errorf("rank 1 packed %v", out1)
	}
}

func TestLocalOrder(t *testing.T) {
	tpl := block2D(t, []int{4, 4}, 2, 2)
	lo := NewLocalOrder(tpl)
	// Each rank owns one contiguous interval of length 4.
	base := 0
	for r := 0; r < 4; r++ {
		s := lo.OwnedBy(r)
		if len(s) != 1 || s[0].Lo != base || s[0].Len() != 4 {
			t.Errorf("rank %d owns %v", r, s)
		}
		base += 4
	}
	// Pack/unpack round trip: local order means a straight copy.
	local := []float64{1, 2, 3, 4}
	owned := lo.OwnedBy(2)
	out := pack(lo, 2, local, owned)
	if !reflect.DeepEqual(out, local) {
		t.Fatalf("local order packed %v, want %v", out, local)
	}
	back := make([]float64, 4)
	unpack(lo, 2, back, owned, out)
	if !reflect.DeepEqual(back, local) {
		t.Fatalf("local order round trip gave %v", back)
	}
}

// Property: for random templates, every linear position maps back to the
// owning rank consistently between RowMajor.OwnedBy and dad ownership.
func TestRowMajorAgreesWithOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []func(p int, n int) dad.AxisDist{
		func(p, n int) dad.AxisDist { return dad.BlockAxis(p) },
		func(p, n int) dad.AxisDist { return dad.CyclicAxis(p) },
		func(p, n int) dad.AxisDist { return dad.BlockCyclicAxis(p, 2) },
	}
	for trial := 0; trial < 20; trial++ {
		dims := []int{2 + rng.Intn(6), 2 + rng.Intn(6)}
		axes := []dad.AxisDist{
			kinds[rng.Intn(len(kinds))](1+rng.Intn(3), dims[0]),
			kinds[rng.Intn(len(kinds))](1+rng.Intn(3), dims[1]),
		}
		tpl, err := dad.NewTemplate(dims, axes)
		if err != nil {
			t.Fatal(err)
		}
		rm := NewRowMajor(tpl)
		idx := make([]int, 2)
		for p := 0; p < tpl.Size(); p++ {
			idx[0] = p / dims[1]
			idx[1] = p % dims[1]
			owner := tpl.OwnerOf(idx)
			for r := 0; r < tpl.NumProcs(); r++ {
				if got := contains(rm.OwnedBy(r), p); got != (r == owner) {
					t.Fatalf("%v: pos %d (idx %v): OwnedBy(%d)=%v, owner=%d", tpl, p, idx, r, got, owner)
				}
			}
		}
	}
}

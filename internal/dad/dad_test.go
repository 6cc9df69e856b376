package dad

import (
	"math/rand"
	"reflect"
	"testing"

	"mxn/internal/wire"
)

// forEachIndex iterates all global indices of dims in row-major order.
func forEachIndex(dims []int, fn func(idx []int)) {
	idx := make([]int, len(dims))
	for {
		for _, d := range dims {
			if d == 0 {
				return
			}
		}
		fn(idx)
		a := len(dims) - 1
		for a >= 0 {
			idx[a]++
			if idx[a] < dims[a] {
				break
			}
			idx[a] = 0
			a--
		}
		if a < 0 {
			return
		}
	}
}

// checkTemplateInvariants verifies the three properties every template must
// satisfy: (1) ownership partitions the index space and agrees with
// Patches, (2) LocalCount sums to Size, and (3) LocalOffset is a bijection
// from each rank's owned indices onto [0, LocalCount).
func checkTemplateInvariants(t *testing.T, tpl *Template) {
	t.Helper()
	total := 0
	for r := 0; r < tpl.NumProcs(); r++ {
		total += tpl.LocalCount(r)
	}
	if total != tpl.Size() {
		t.Errorf("%v: local counts sum to %d, size is %d", tpl, total, tpl.Size())
	}

	// Ownership from Patches must agree with OwnerOf and tile the space.
	ownerFromPatches := map[string]int{}
	key := func(idx []int) string {
		b := make([]byte, 0, 16)
		for _, i := range idx {
			b = append(b, byte(i), byte(i>>8), ',')
		}
		return string(b)
	}
	for r := 0; r < tpl.NumProcs(); r++ {
		for _, p := range tpl.Patches(r) {
			forEachIndex(p.Shape(), func(rel []int) {
				idx := make([]int, len(rel))
				for a := range rel {
					idx[a] = p.Lo[a] + rel[a]
				}
				k := key(idx)
				if prev, dup := ownerFromPatches[k]; dup {
					t.Fatalf("%v: index %v in patches of both rank %d and %d", tpl, idx, prev, r)
				}
				ownerFromPatches[k] = r
			})
		}
	}
	if len(ownerFromPatches) != tpl.Size() {
		t.Errorf("%v: patches cover %d of %d indices", tpl, len(ownerFromPatches), tpl.Size())
	}

	seen := make([]map[int]bool, tpl.NumProcs())
	for r := range seen {
		seen[r] = map[int]bool{}
	}
	forEachIndex(tpl.Dims(), func(idx []int) {
		r := tpl.OwnerOf(idx)
		if r < 0 || r >= tpl.NumProcs() {
			t.Fatalf("%v: OwnerOf(%v) = %d out of range", tpl, idx, r)
		}
		if pr, ok := ownerFromPatches[key(idx)]; !ok || pr != r {
			t.Fatalf("%v: OwnerOf(%v)=%d but patches say %d (found=%v)", tpl, idx, r, pr, ok)
		}
		off := tpl.LocalOffset(r, idx)
		if off < 0 || off >= tpl.LocalCount(r) {
			t.Fatalf("%v: LocalOffset(%d, %v) = %d outside [0,%d)", tpl, r, idx, off, tpl.LocalCount(r))
		}
		if seen[r][off] {
			t.Fatalf("%v: rank %d local offset %d hit twice (at %v)", tpl, r, off, idx)
		}
		seen[r][off] = true
	})
	for r := range seen {
		if len(seen[r]) != tpl.LocalCount(r) {
			t.Errorf("%v: rank %d offsets cover %d of %d", tpl, r, len(seen[r]), tpl.LocalCount(r))
		}
	}
}

func mustTemplate(t *testing.T, dims []int, axes []AxisDist) *Template {
	t.Helper()
	tpl, err := NewTemplate(dims, axes)
	if err != nil {
		t.Fatal(err)
	}
	return tpl
}

func TestBlock1D(t *testing.T) {
	tpl := mustTemplate(t, []int{10}, []AxisDist{BlockAxis(3)})
	// ceil(10/3)=4: rank0=[0,4) rank1=[4,8) rank2=[8,10)
	wantCounts := []int{4, 4, 2}
	for r, w := range wantCounts {
		if got := tpl.LocalCount(r); got != w {
			t.Errorf("rank %d count = %d, want %d", r, got, w)
		}
	}
	if tpl.OwnerOf([]int{3}) != 0 || tpl.OwnerOf([]int{4}) != 1 || tpl.OwnerOf([]int{9}) != 2 {
		t.Error("block ownership wrong")
	}
	if off := tpl.LocalOffset(1, []int{5}); off != 1 {
		t.Errorf("LocalOffset(1, 5) = %d, want 1", off)
	}
	checkTemplateInvariants(t, tpl)
}

func TestCyclic1D(t *testing.T) {
	tpl := mustTemplate(t, []int{7}, []AxisDist{CyclicAxis(3)})
	// rank0: 0,3,6; rank1: 1,4; rank2: 2,5
	if tpl.LocalCount(0) != 3 || tpl.LocalCount(1) != 2 || tpl.LocalCount(2) != 2 {
		t.Error("cyclic counts wrong")
	}
	if tpl.OwnerOf([]int{4}) != 1 {
		t.Error("cyclic owner wrong")
	}
	if off := tpl.LocalOffset(0, []int{6}); off != 2 {
		t.Errorf("LocalOffset(0, 6) = %d, want 2", off)
	}
	checkTemplateInvariants(t, tpl)
}

func TestBlockCyclic1D(t *testing.T) {
	tpl := mustTemplate(t, []int{10}, []AxisDist{BlockCyclicAxis(2, 2)})
	// Blocks of 2 dealt to 2 ranks: r0: [0,2),[4,6),[8,10); r1: [2,4),[6,8)
	if tpl.LocalCount(0) != 6 || tpl.LocalCount(1) != 4 {
		t.Errorf("counts = %d,%d", tpl.LocalCount(0), tpl.LocalCount(1))
	}
	if tpl.OwnerOf([]int{5}) != 0 || tpl.OwnerOf([]int{6}) != 1 {
		t.Error("block-cyclic owner wrong")
	}
	if off := tpl.LocalOffset(0, []int{8}); off != 4 {
		t.Errorf("LocalOffset(0, 8) = %d, want 4", off)
	}
	checkTemplateInvariants(t, tpl)
}

func TestBlockCyclicPartialLastBlock(t *testing.T) {
	// Length 11, block 3, 2 ranks: blocks [0,3)r0 [3,6)r1 [6,9)r0 [9,11)r1.
	tpl := mustTemplate(t, []int{11}, []AxisDist{BlockCyclicAxis(2, 3)})
	if tpl.LocalCount(0) != 6 || tpl.LocalCount(1) != 5 {
		t.Errorf("counts = %d,%d", tpl.LocalCount(0), tpl.LocalCount(1))
	}
	checkTemplateInvariants(t, tpl)
}

func TestGenBlock1D(t *testing.T) {
	tpl := mustTemplate(t, []int{10}, []AxisDist{GenBlockAxis([]int{1, 6, 3})})
	if tpl.OwnerOf([]int{0}) != 0 || tpl.OwnerOf([]int{1}) != 1 || tpl.OwnerOf([]int{6}) != 1 || tpl.OwnerOf([]int{7}) != 2 {
		t.Error("genblock owner wrong")
	}
	checkTemplateInvariants(t, tpl)
}

func TestGenBlockZeroSizedBlock(t *testing.T) {
	tpl := mustTemplate(t, []int{5}, []AxisDist{GenBlockAxis([]int{0, 5, 0})})
	if tpl.LocalCount(0) != 0 || tpl.LocalCount(1) != 5 || tpl.LocalCount(2) != 0 {
		t.Error("zero-sized genblock counts wrong")
	}
	if got := tpl.Patches(0); got != nil {
		t.Errorf("empty rank has patches %v", got)
	}
	checkTemplateInvariants(t, tpl)
}

func TestImplicit1D(t *testing.T) {
	owner := []int{2, 0, 2, 1, 0, 1, 2, 2}
	tpl := mustTemplate(t, []int{8}, []AxisDist{ImplicitAxis(3, owner)})
	for g, o := range owner {
		if got := tpl.OwnerOf([]int{g}); got != o {
			t.Errorf("OwnerOf(%d) = %d, want %d", g, got, o)
		}
	}
	// Rank 2 owns indices 0,2,6,7 → positions 0,1,2,3.
	if off := tpl.LocalOffset(2, []int{6}); off != 2 {
		t.Errorf("LocalOffset(2, 6) = %d, want 2", off)
	}
	checkTemplateInvariants(t, tpl)
}

func TestCollapsedAxis2D(t *testing.T) {
	tpl := mustTemplate(t, []int{4, 6}, []AxisDist{BlockAxis(2), CollapsedAxis()})
	if tpl.NumProcs() != 2 {
		t.Fatalf("nprocs = %d", tpl.NumProcs())
	}
	if !reflect.DeepEqual(tpl.LocalShape(0), []int{2, 6}) {
		t.Errorf("local shape = %v", tpl.LocalShape(0))
	}
	checkTemplateInvariants(t, tpl)
}

func Test2DBlockBlockGrid(t *testing.T) {
	tpl := mustTemplate(t, []int{8, 8}, []AxisDist{BlockAxis(2), BlockAxis(4)})
	if tpl.NumProcs() != 8 {
		t.Fatalf("nprocs = %d", tpl.NumProcs())
	}
	// Row-major rank mapping: coords (1,2) → rank 1*4+2 = 6.
	if r := tpl.RankOf([]int{1, 2}); r != 6 {
		t.Errorf("RankOf(1,2) = %d", r)
	}
	if !reflect.DeepEqual(tpl.Coords(6), []int{1, 2}) {
		t.Errorf("Coords(6) = %v", tpl.Coords(6))
	}
	if got := tpl.OwnerOf([]int{5, 5}); got != 6 {
		t.Errorf("OwnerOf(5,5) = %d, want 6", got)
	}
	checkTemplateInvariants(t, tpl)
}

func Test3DFigure1Decompositions(t *testing.T) {
	// The Figure 1 setup: the same 6×6×6 space on 8 (2×2×2) and 27 (3×3×3)
	// ranks.
	m := mustTemplate(t, []int{6, 6, 6}, []AxisDist{BlockAxis(2), BlockAxis(2), BlockAxis(2)})
	n := mustTemplate(t, []int{6, 6, 6}, []AxisDist{BlockAxis(3), BlockAxis(3), BlockAxis(3)})
	if m.NumProcs() != 8 || n.NumProcs() != 27 {
		t.Fatalf("procs = %d, %d", m.NumProcs(), n.NumProcs())
	}
	if !m.Conforms(n) {
		t.Error("templates should conform")
	}
	checkTemplateInvariants(t, m)
	checkTemplateInvariants(t, n)
}

func TestMixedKinds2D(t *testing.T) {
	tpl := mustTemplate(t, []int{9, 12}, []AxisDist{CyclicAxis(2), BlockCyclicAxis(3, 2)})
	checkTemplateInvariants(t, tpl)
}

func TestExplicitTemplate(t *testing.T) {
	// 4×4 split into 3 patches over 2 ranks.
	patches := []Patch{
		NewPatch([]int{0, 0}, []int{2, 4}, 0),
		NewPatch([]int{2, 0}, []int{4, 2}, 1),
		NewPatch([]int{2, 2}, []int{4, 4}, 0),
	}
	tpl, err := NewExplicitTemplate([]int{4, 4}, 2, patches)
	if err != nil {
		t.Fatal(err)
	}
	if !tpl.IsExplicit() {
		t.Error("IsExplicit = false")
	}
	if tpl.LocalCount(0) != 12 || tpl.LocalCount(1) != 4 {
		t.Errorf("counts = %d,%d", tpl.LocalCount(0), tpl.LocalCount(1))
	}
	if tpl.OwnerOf([]int{3, 1}) != 1 || tpl.OwnerOf([]int{3, 3}) != 0 {
		t.Error("explicit owner wrong")
	}
	// Rank 0's buffer: patch0 (8 elems) then patch2 (4 elems); index (2,3)
	// is patch2 position (0,1) → offset 8+1 = 9.
	if off := tpl.LocalOffset(0, []int{2, 3}); off != 9 {
		t.Errorf("LocalOffset = %d, want 9", off)
	}
	checkTemplateInvariants(t, tpl)
}

func TestExplicitValidation(t *testing.T) {
	dims := []int{4, 4}
	overlap := []Patch{
		NewPatch([]int{0, 0}, []int{3, 4}, 0),
		NewPatch([]int{2, 0}, []int{4, 4}, 1),
	}
	if _, err := NewExplicitTemplate(dims, 2, overlap); err == nil {
		t.Error("overlapping patches accepted")
	}
	gap := []Patch{NewPatch([]int{0, 0}, []int{2, 4}, 0)}
	if _, err := NewExplicitTemplate(dims, 2, gap); err == nil {
		t.Error("non-covering patches accepted")
	}
	bad := []Patch{NewPatch([]int{0, 0}, []int{5, 4}, 0)}
	if _, err := NewExplicitTemplate(dims, 2, bad); err == nil {
		t.Error("out-of-bounds patch accepted")
	}
	badOwner := []Patch{NewPatch([]int{0, 0}, []int{4, 4}, 7)}
	if _, err := NewExplicitTemplate(dims, 2, badOwner); err == nil {
		t.Error("bad owner accepted")
	}
}

func TestTemplateValidation(t *testing.T) {
	cases := []struct {
		name string
		dims []int
		axes []AxisDist
	}{
		{"no axes", nil, nil},
		{"axis count mismatch", []int{4}, []AxisDist{BlockAxis(2), BlockAxis(2)}},
		{"negative dim", []int{-1}, []AxisDist{BlockAxis(2)}},
		{"zero procs", []int{4}, []AxisDist{{Kind: Block, Procs: 0}}},
		{"collapsed multi", []int{4}, []AxisDist{{Kind: Collapsed, Procs: 2}}},
		{"blockcyclic no size", []int{4}, []AxisDist{{Kind: BlockCyclic, Procs: 2}}},
		{"genblock bad sum", []int{4}, []AxisDist{GenBlockAxis([]int{1, 1})}},
		{"genblock negative", []int{4}, []AxisDist{GenBlockAxis([]int{-1, 5})}},
		{"implicit short", []int{4}, []AxisDist{ImplicitAxis(2, []int{0})}},
		{"implicit bad owner", []int{2}, []AxisDist{ImplicitAxis(2, []int{0, 5})}},
	}
	for _, c := range cases {
		if _, err := NewTemplate(c.dims, c.axes); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestPatchAlgebra(t *testing.T) {
	p := NewPatch([]int{0, 0}, []int{4, 4}, 0)
	q := NewPatch([]int{2, 2}, []int{6, 6}, 1)
	got, ok := p.Intersect(q)
	if !ok || !reflect.DeepEqual(got.Lo, []int{2, 2}) || !reflect.DeepEqual(got.Hi, []int{4, 4}) {
		t.Errorf("intersect = %v ok=%v", got, ok)
	}
	r := NewPatch([]int{4, 0}, []int{6, 4}, 2)
	if _, ok := p.Intersect(r); ok {
		t.Error("touching patches reported overlapping")
	}
	if p.Size() != 16 || got.Size() != 4 {
		t.Error("sizes wrong")
	}
	if !p.Contains([]int{3, 3}) || p.Contains([]int{4, 0}) {
		t.Error("contains wrong")
	}
}

func TestIntervalAlgebra(t *testing.T) {
	a := Interval{2, 7}
	b := Interval{5, 10}
	got, ok := a.Intersect(b)
	if !ok || got != (Interval{5, 7}) {
		t.Errorf("intersect = %v ok=%v", got, ok)
	}
	if _, ok := a.Intersect(Interval{7, 9}); ok {
		t.Error("touching intervals overlap")
	}
	if a.Len() != 5 {
		t.Error("len wrong")
	}
}

func TestKeyDistinguishesTemplates(t *testing.T) {
	a := mustTemplate(t, []int{8}, []AxisDist{BlockAxis(2)})
	b := mustTemplate(t, []int{8}, []AxisDist{CyclicAxis(2)})
	c := mustTemplate(t, []int{8}, []AxisDist{BlockAxis(2)})
	if a.Key() == b.Key() {
		t.Error("block and cyclic share a key")
	}
	if a.Key() != c.Key() {
		t.Error("identical templates have different keys")
	}
	d := mustTemplate(t, []int{8}, []AxisDist{BlockCyclicAxis(2, 2)})
	e := mustTemplate(t, []int{8}, []AxisDist{BlockCyclicAxis(2, 4)})
	if d.Key() == e.Key() {
		t.Error("different block sizes share a key")
	}
}

// A template owns its axes' Sizes and Owner slices: mutating the slices
// a caller built the template from, or the ones Axis returns, changes
// neither its key nor its layout (whose local counts are precomputed).
func TestTemplateOwnsItsAxisSlices(t *testing.T) {
	sizes := []int{3, 5}
	owner := []int{0, 1, 1, 0}
	tp := mustTemplate(t, []int{8, 4}, []AxisDist{
		{Kind: GenBlock, Procs: 2, Sizes: sizes},
		{Kind: Implicit, Procs: 2, Owner: owner},
	})
	key, count, patches := tp.Key(), tp.LocalCount(0), tp.Patches(0)

	sizes[0], sizes[1] = 5, 3
	owner[1] = 0
	tp.Axis(0).Sizes[0] = 8
	tp.Axis(1).Owner[2] = 0

	if got := tp.Key(); got != key {
		t.Errorf("key changed from %q to %q", key, got)
	}
	if got := tp.LocalCount(0); got != count {
		t.Errorf("LocalCount(0) changed from %d to %d", count, got)
	}
	if got := tp.Patches(0); !reflect.DeepEqual(got, patches) {
		t.Errorf("Patches(0) changed from %v to %v", patches, got)
	}
	if got := tp.Axis(0).Sizes; !reflect.DeepEqual(got, []int{3, 5}) {
		t.Errorf("Axis(0).Sizes = %v, want [3 5]", got)
	}
}

func randomAxis(rng *rand.Rand, n int) AxisDist {
	p := 1 + rng.Intn(4)
	switch rng.Intn(6) {
	case 0:
		return CollapsedAxis()
	case 1:
		return BlockAxis(p)
	case 2:
		return CyclicAxis(p)
	case 3:
		return BlockCyclicAxis(p, 1+rng.Intn(3))
	case 4:
		sizes := make([]int, p)
		left := n
		for i := 0; i < p-1; i++ {
			s := 0
			if left > 0 {
				s = rng.Intn(left + 1)
			}
			sizes[i] = s
			left -= s
		}
		sizes[p-1] = left
		return GenBlockAxis(sizes)
	default:
		owner := make([]int, n)
		for i := range owner {
			owner[i] = rng.Intn(p)
		}
		return ImplicitAxis(p, owner)
	}
}

// RandomTemplate builds a random valid regular template; exported to the
// package tests (schedule reuses it via its own generator).
func randomTemplate(rng *rand.Rand, dims []int) *Template {
	axes := make([]AxisDist, len(dims))
	for a := range axes {
		axes[a] = randomAxis(rng, dims[a])
	}
	tpl, err := NewTemplate(dims, axes)
	if err != nil {
		panic(err)
	}
	return tpl
}

func TestPropertyRandomTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		nd := 1 + rng.Intn(3)
		dims := make([]int, nd)
		for a := range dims {
			dims[a] = 1 + rng.Intn(9)
		}
		tpl := randomTemplate(rng, dims)
		checkTemplateInvariants(t, tpl)
		if t.Failed() {
			t.Fatalf("failing template: %s key=%s", tpl, tpl.Key())
		}
	}
}

func TestPropertyRandomExplicitTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		// Build a tiling by recursive bisection of a 2-D box.
		dims := []int{2 + rng.Intn(8), 2 + rng.Intn(8)}
		nprocs := 1 + rng.Intn(5)
		var patches []Patch
		var split func(lo, hi []int, depth int)
		split = func(lo, hi []int, depth int) {
			if depth == 0 || rng.Intn(3) == 0 {
				patches = append(patches, NewPatch(lo, hi, rng.Intn(nprocs)))
				return
			}
			a := rng.Intn(2)
			if hi[a]-lo[a] < 2 {
				patches = append(patches, NewPatch(lo, hi, rng.Intn(nprocs)))
				return
			}
			cut := lo[a] + 1 + rng.Intn(hi[a]-lo[a]-1)
			hi1 := append([]int(nil), hi...)
			hi1[a] = cut
			lo2 := append([]int(nil), lo...)
			lo2[a] = cut
			split(lo, hi1, depth-1)
			split(lo2, hi, depth-1)
		}
		split([]int{0, 0}, dims, 4)
		tpl, err := NewExplicitTemplate(dims, nprocs, patches)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkTemplateInvariants(t, tpl)
		if t.Failed() {
			t.Fatalf("failing explicit template: %s", tpl)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		dims := []int{1 + rng.Intn(8), 1 + rng.Intn(8)}
		tpl := randomTemplate(rng, dims)
		e := wire.NewEncoder(nil)
		tpl.Encode(e)
		got, err := DecodeTemplate(wire.NewDecoder(e.Bytes()))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Key() != tpl.Key() {
			t.Errorf("round trip changed template:\n  in:  %s\n  out: %s", tpl.Key(), got.Key())
		}
	}
	// Explicit template round trip.
	patches := []Patch{
		NewPatch([]int{0, 0}, []int{2, 4}, 1),
		NewPatch([]int{2, 0}, []int{4, 4}, 0),
	}
	tpl, err := NewExplicitTemplate([]int{4, 4}, 2, patches)
	if err != nil {
		t.Fatal(err)
	}
	e := wire.NewEncoder(nil)
	tpl.Encode(e)
	got, err := DecodeTemplate(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != tpl.Key() {
		t.Error("explicit round trip changed template")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	if _, err := DecodeTemplate(wire.NewDecoder([]byte{99})); err == nil {
		t.Error("bad tag accepted")
	}
	if _, err := DecodeTemplate(wire.NewDecoder(nil)); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestDescriptor(t *testing.T) {
	tpl := mustTemplate(t, []int{8}, []AxisDist{BlockAxis(2)})
	d, err := NewDescriptor("temperature", Float64, ReadWrite, tpl)
	if err != nil {
		t.Fatal(err)
	}
	if d.LocalLen(0) != 4 {
		t.Errorf("LocalLen = %d", d.LocalLen(0))
	}
	if !d.Mode.CanRead() || !d.Mode.CanWrite() {
		t.Error("mode flags wrong")
	}
	e := wire.NewEncoder(nil)
	d.Encode(e)
	got, err := DecodeDescriptor(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "temperature" || got.Elem != Float64 || got.Mode != ReadWrite {
		t.Errorf("descriptor round trip: %v", got)
	}
	if _, err := NewDescriptor("", Float64, ReadOnly, tpl); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewDescriptor("x", Float64, Access(0), tpl); err == nil {
		t.Error("no access mode accepted")
	}
	if _, err := NewDescriptor("x", Float64, ReadOnly, nil); err == nil {
		t.Error("nil template accepted")
	}
}

func TestElemKindBytes(t *testing.T) {
	if Float64.Bytes() != 8 || Float32.Bytes() != 4 || Byte.Bytes() != 1 {
		t.Error("element sizes wrong")
	}
	if Int64.Bytes() != 8 || Int32.Bytes() != 4 || Complex128.Bytes() != 16 {
		t.Error("element sizes wrong")
	}
	if Complex128.String() != "complex128" {
		t.Errorf("Complex128.String() = %q", Complex128.String())
	}
}

func TestDescriptorComplex128RoundTrip(t *testing.T) {
	tpl := mustTemplate(t, []int{8}, []AxisDist{BlockAxis(2)})
	d, err := NewDescriptor("psi", Complex128, ReadWrite, tpl)
	if err != nil {
		t.Fatal(err)
	}
	var e wire.Encoder
	d.Encode(&e)
	got, err := DecodeDescriptor(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Elem != Complex128 || got.Name != "psi" {
		t.Fatalf("round trip: got %v", got)
	}
}

func TestAccessString(t *testing.T) {
	if ReadOnly.String() != "read" || ReadWrite.String() != "read/write" {
		t.Error("access strings wrong")
	}
}

func Test4DTemplate(t *testing.T) {
	// Higher-arity templates exercise the same per-axis machinery; the
	// invariants must hold in 4-D too.
	tpl := mustTemplate(t, []int{4, 3, 5, 2}, []AxisDist{
		BlockAxis(2), CyclicAxis(3), BlockCyclicAxis(2, 2), CollapsedAxis(),
	})
	if tpl.NumProcs() != 12 {
		t.Fatalf("nprocs = %d", tpl.NumProcs())
	}
	checkTemplateInvariants(t, tpl)
}

func Test4DScheduleViaRedistribution(t *testing.T) {
	// And a full 4-D redistribution round trip through the schedule layer
	// is covered from the schedule package; here verify conformance and
	// key stability across arities.
	a := mustTemplate(t, []int{2, 2, 2, 2}, []AxisDist{BlockAxis(2), CollapsedAxis(), CollapsedAxis(), CollapsedAxis()})
	b := mustTemplate(t, []int{2, 2, 2}, []AxisDist{BlockAxis(2), CollapsedAxis(), CollapsedAxis()})
	if a.Conforms(b) {
		t.Error("different-arity templates conform")
	}
	if a.Key() == b.Key() {
		t.Error("keys collide across arities")
	}
}

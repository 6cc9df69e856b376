// Closed-form schedule planning for regular layout pairs.
//
// The enumerating builders intersect materialized interval lists (or patch
// lists) and call Template.LocalOffset once per run — correct for every
// distribution, but first contact between two cohorts pays milliseconds
// and tens of thousands of allocations (bench/'s schedule.build_us is the
// number to watch). For the common regular cases the
// intersection of two coordinates' owned index sets has a closed form
// (Sudarsan & Ribbens, "Efficient Multidimensional Data Redistribution
// for Resizable Parallel Computations"):
//
//   - interval × interval (block↔block and friends): one clipped interval;
//   - interval × strided (block↔cyclic): the blocks of the strided side
//     that meet the interval form an arithmetic progression, with only the
//     first and last blocks clipped;
//   - strided × strided with one dealt block size b (cyclic↔cyclic,
//     block-cyclic↔block-cyclic): both sides partition the axis into the
//     same aligned size-b blocks, so the intersection is the set of block
//     indices m with m ≡ cs (mod P) and m ≡ cd (mod Q) — by CRT an
//     arithmetic progression with period lcm(P,Q), nonempty iff
//     cs ≡ cd (mod gcd(P,Q)).
//
// Every per-axis intersection is therefore an ixDesc: an O(1)-sized
// descriptor enumerable without materializing anything. Runs are emitted
// arithmetically from the descriptors (local indices come from the O(1)
// per-kind formulas, never from Template.LocalOffset): a last-axis
// descriptor is at most three vector runs per row — its clipped first
// interval, its unclipped intervals as one vector, its clipped last
// interval — and when every row is a single block, the rows of one
// interval of the next-to-last axis are one vector, so a cyclic↔block
// pair or a block-rows↔block-columns pair is one run. A first pass counts
// the pairs and runs, so the second writes them into tables made at their
// exact size: a build's allocations do not grow with the number of pairs
// or runs. Each axis's descriptor table holds every coordinate pair of
// that axis, each O(1) arithmetic; total output work is proportional to
// the number of rows (or, for single-block rows, of next-to-last-axis
// intervals), not of elements.
//
// Applicability is decided by dad.Template.ClosedFormPair; everything else
// (Implicit axes, explicit patch templates, strided pairs with differing
// block sizes) falls back to the enumerating builders.
package schedule

import "mxn/internal/dad"

// ixDesc is the closed-form intersection of one source coordinate's and
// one destination coordinate's owned index sets along a single axis:
// count intervals [start + k*stride, start + k*stride + blen) for k in
// [0, count), each clipped to [clipLo, clipHi). stride ≥ blen, so only
// the first and last interval can actually be clipped; every interval is
// nonempty and lies within a single owned block of BOTH sides, so local
// indices advance by one per global index across it on both sides — which
// is what lets each interval be one block of a Run.
type ixDesc struct {
	count          int
	start, stride  int
	blen           int
	clipLo, clipHi int
	elems          int
}

// ixFromIntervals intersects two single intervals.
func ixFromIntervals(alo, ahi, blo, bhi int) ixDesc {
	lo, hi := alo, ahi
	if blo > lo {
		lo = blo
	}
	if bhi < hi {
		hi = bhi
	}
	if lo >= hi {
		return ixDesc{}
	}
	return ixDesc{count: 1, start: lo, stride: hi - lo, blen: hi - lo, clipLo: lo, clipHi: hi, elems: hi - lo}
}

// ixIntervalStrided intersects the interval [ilo, ihi) with the strided
// set {m·b + [0, b) : m ≡ c (mod p)}: the qualifying block indices form
// an arithmetic progression with step p.
func ixIntervalStrided(ilo, ihi, c, p, b int) ixDesc {
	if ilo >= ihi {
		return ixDesc{}
	}
	mLo := ilo / b       // first block with (m+1)·b > ilo
	mHi := (ihi - 1) / b // last block with m·b < ihi
	delta := (c - mLo%p + p) % p
	mStart := mLo + delta
	if mStart > mHi {
		return ixDesc{}
	}
	count := (mHi-mStart)/p + 1
	d := ixDesc{
		count:  count,
		start:  mStart * b,
		stride: p * b,
		blen:   b,
		clipLo: ilo,
		clipHi: ihi,
	}
	d.elems = count * b
	if lead := ilo - d.start; lead > 0 {
		d.elems -= lead
	}
	if tail := d.start + (count-1)*d.stride + b - ihi; tail > 0 {
		d.elems -= tail
	}
	return d
}

// egcd returns g = gcd(a, b) and x, y with a·x + b·y = g.
func egcd(a, b int) (g, x, y int) {
	if b == 0 {
		return a, 1, 0
	}
	g, x1, y1 := egcd(b, a%b)
	return g, y1, x1 - (a/b)*y1
}

// ixStridedStrided intersects two strided sets with one block size b over
// an axis of length n: blocks m with m ≡ c1 (mod p1) and m ≡ c2 (mod p2).
// By CRT the solutions (if any) are m ≡ m0 (mod lcm(p1, p2)).
func ixStridedStrided(c1, p1, c2, p2, b, n int) ixDesc {
	g, x, _ := egcd(p1, p2)
	if (c2-c1)%g != 0 {
		return ixDesc{}
	}
	q := p2 / g
	l := p1 / g * p2
	// m = c1 + p1·t with t ≡ inv(p1/g)·((c2-c1)/g) (mod p2/g); x from the
	// extended gcd is that inverse.
	t := (x % q) * ((c2 - c1) / g % q) % q
	t = (t%q + q) % q
	m0 := (c1 + p1*t) % l
	nBlocks := (n + b - 1) / b
	if m0 >= nBlocks {
		return ixDesc{}
	}
	count := (nBlocks-1-m0)/l + 1
	d := ixDesc{
		count:  count,
		start:  m0 * b,
		stride: l * b,
		blen:   b,
		clipLo: 0,
		clipHi: n,
	}
	d.elems = count * b
	if tail := d.start + (count-1)*d.stride + b - n; tail > 0 {
		d.elems -= tail
	}
	return d
}

// axSide is one template's per-axis view with everything the emitter needs
// in O(1): the per-coordinate interval table (interval class), the dealt
// block geometry (strided class) and the per-coordinate local counts.
type axSide struct {
	class  dad.AxisClass
	procs  int
	n      int
	b, bp  int   // strided: block size and b·procs
	lo, hi []int // interval class: per-coordinate owned interval
	cnt    []int // per-coordinate local count
}

// li returns the local index of owned global index g on coordinate c
// (the closed-form equivalent of AxisDist.localIndex).
func (s *axSide) li(g, c int) int {
	if s.class == dad.ClassInterval {
		return g - s.lo[c]
	}
	return (g/s.bp)*s.b + g%s.b
}

// lstride returns how far the local index moves on coordinate c when the
// global index moves by stride within the progression of an ixDesc, whose
// stride a strided side's b·procs always divides.
func (s *axSide) lstride(stride int) int {
	if s.class == dad.ClassInterval {
		return stride
	}
	return stride / s.bp * s.b
}

// makeSide builds the per-coordinate tables for one axis of one template.
// O(procs) arithmetic.
func makeSide(ax dad.AxisDist, n int) axSide {
	s := axSide{class: ax.Class(), procs: ax.Procs, n: n}
	s.cnt = make([]int, ax.Procs)
	switch s.class {
	case dad.ClassInterval:
		s.lo = make([]int, ax.Procs)
		s.hi = make([]int, ax.Procs)
		switch ax.Kind {
		case dad.Collapsed:
			s.lo[0], s.hi[0] = 0, n
		case dad.Block:
			bl := (n + ax.Procs - 1) / ax.Procs
			for c := 0; c < ax.Procs; c++ {
				lo, hi := c*bl, c*bl+bl
				if lo > n {
					lo = n
				}
				if hi > n {
					hi = n
				}
				s.lo[c], s.hi[c] = lo, hi
			}
		case dad.GenBlock:
			acc := 0
			for c, sz := range ax.Sizes {
				s.lo[c] = acc
				acc += sz
				s.hi[c] = acc
			}
		}
		for c := 0; c < ax.Procs; c++ {
			s.cnt[c] = s.hi[c] - s.lo[c]
		}
	case dad.ClassStrided:
		s.b = ax.StrideBlock()
		s.bp = s.b * ax.Procs
		nBlocks := (n + s.b - 1) / s.b
		clip := nBlocks*s.b - n // shortfall of the globally last block
		for c := 0; c < ax.Procs && c < nBlocks; c++ {
			nb := (nBlocks-1-c)/ax.Procs + 1
			cntC := nb * s.b
			if clip > 0 && (nBlocks-1)%ax.Procs == c {
				cntC -= clip
			}
			s.cnt[c] = cntC
		}
	}
	return s
}

// intersect computes the axis intersection descriptor for source
// coordinate cs and destination coordinate cd. Requires ClosedFormPair.
func intersect(ss, ds *axSide, cs, cd int) ixDesc {
	switch {
	case ss.class == dad.ClassInterval && ds.class == dad.ClassInterval:
		return ixFromIntervals(ss.lo[cs], ss.hi[cs], ds.lo[cd], ds.hi[cd])
	case ss.class == dad.ClassInterval:
		return ixIntervalStrided(ss.lo[cs], ss.hi[cs], cd, ds.procs, ds.b)
	case ds.class == dad.ClassInterval:
		return ixIntervalStrided(ds.lo[cd], ds.hi[cd], cs, ss.procs, ss.b)
	default:
		return ixStridedStrided(cs, ss.procs, cd, ds.procs, ss.b, ss.n)
	}
}

// buildFast computes the schedule arithmetically. The caller has verified
// s.Src.ClosedFormPair(s.Dst).
func (s *Schedule) buildFast() {
	na := s.Src.NumAxes()

	srcSides := make([]axSide, na)
	dstSides := make([]axSide, na)
	for a := 0; a < na; a++ {
		srcSides[a] = makeSide(s.Src.Axis(a), s.Src.Dim(a))
		dstSides[a] = makeSide(s.Dst.Axis(a), s.Dst.Dim(a))
	}

	// Per axis: the full coordinate-pair descriptor table and the packed
	// list (cs·Q + cd) of nonempty pairs, in (cs, cd) lexicographic order.
	descTab := make([][]ixDesc, na)
	pairTab := make([][]int, na)
	for a := 0; a < na; a++ {
		p, q := srcSides[a].procs, dstSides[a].procs
		descTab[a] = make([]ixDesc, p*q)
		pairs := make([]int, 0, p*q)
		for cs := 0; cs < p; cs++ {
			for cd := 0; cd < q; cd++ {
				d := intersect(&srcSides[a], &dstSides[a], cs, cd)
				descTab[a][cs*q+cd] = d
				if d.count > 0 {
					pairs = append(pairs, cs*q+cd)
				}
			}
		}
		pairTab[a] = pairs
	}

	f := fastPlan{
		s:    s,
		src:  srcSides,
		dst:  dstSides,
		desc: descTab,
		nz:   pairTab,
		srcC: make([]int, na),
		dstC: make([]int, na),
		cur:  make([]*ixDesc, na),
	}
	// Pass 1 counts pairs and runs (after merging) so the tables can be
	// made at their exact size; pass 2 repeats the walk and writes them.
	f.walk(0)
	f.pairs = make([]PairPlan, f.nPairs)
	f.runs = make([]Run, f.nRuns)
	f.fill, f.nPairs, f.nRuns = true, 0, 0
	f.walk(0)
	s.Pairs = f.pairs
}

// fastPlan is one closed-form build's walk state: the per-axis sides and
// descriptor tables, the coordinate pair and descriptor chosen on each
// axis, and the tables the fill pass writes.
type fastPlan struct {
	s          *Schedule
	src, dst   []axSide
	desc       [][]ixDesc // per axis: descriptor of coordinate pair cs·Q + cd
	nz         [][]int    // per axis: the nonempty coordinate pairs, in (cs, cd) order
	srcC, dstC []int
	cur        []*ixDesc

	fill          bool
	b             runBuilder
	pairs         []PairPlan
	runs          []Run
	nPairs, nRuns int
}

// walk visits every communicating coordinate-pair combination in (cs, cd)
// lexicographic order and plans each as one pair.
func (f *fastPlan) walk(a int) {
	if a == len(f.cur) {
		f.pair()
		return
	}
	q := f.dst[a].procs
	for _, pk := range f.nz[a] {
		f.cur[a] = &f.desc[a][pk]
		f.srcC[a], f.dstC[a] = pk/q, pk%q
		f.walk(a + 1)
	}
}

// pair plans the current coordinate-pair combination: counts its runs,
// or in the fill pass writes them (into the run table, which the counting
// pass sized exactly) and its PairPlan.
func (f *fastPlan) pair() {
	f.b = runBuilder{}
	if f.fill {
		f.b.out = f.runs[f.nRuns:f.nRuns]
	}
	f.emit(0, 0, 0)
	runs := f.b.finish()
	if f.fill {
		f.pairs[f.nPairs] = PairPlan{
			SrcRank: f.s.Src.RankOf(f.srcC),
			DstRank: f.s.Dst.RankOf(f.dstC),
			Runs:    runs[:f.b.n:f.b.n],
			Elems:   f.b.elems,
		}
	}
	f.nRuns += f.b.n
	f.nPairs++
}

// emit adds the current pair's runs to the builder: rows iterate the global
// indices of axes 0..na-2 in ascending order, and each row's last-axis
// descriptor becomes at most three runs — a clipped first interval, the
// unclipped intervals as one vector, a clipped last interval — unless a
// row is one block, when a whole interval of rows is one vector. so/do are
// the local offsets through the axes above a (off = off·cnt + localIndex
// at every level, matching Template.LocalOffset's row-major canonical
// layout).
func (f *fastPlan) emit(a, so, do int) {
	d := f.cur[a]
	ss, ds := &f.src[a], &f.dst[a]
	cs, cd := f.srcC[a], f.dstC[a]
	so *= ss.cnt[cs]
	do *= ds.cnt[cd]
	if e := f.cur[len(f.cur)-1]; a == len(f.cur)-2 && e.count == 1 {
		// Every row is one block, and the rows of one interval of this
		// axis are a progression: the next row starts one whole local
		// last-axis row further on, on both sides.
		es, ed := &f.src[a+1], &f.dst[a+1]
		ecs, ecd := f.srcC[a+1], f.dstC[a+1]
		lo := max(e.start, e.clipLo)
		base := d.start
		for k := 0; k < d.count; k++ {
			g0, g1 := max(base, d.clipLo), min(base+d.blen, d.clipHi)
			f.b.add(vec((so+ss.li(g0, cs))*es.cnt[ecs]+es.li(lo, ecs), (do+ds.li(g0, cd))*ed.cnt[ecd]+ed.li(lo, ecd),
				e.elems, g1-g0, es.cnt[ecs], ed.cnt[ecd]))
			base += d.stride
		}
		return
	}
	if a < len(f.cur)-1 {
		base := d.start
		for k := 0; k < d.count; k++ {
			for g := max(base, d.clipLo); g < min(base+d.blen, d.clipHi); g++ {
				f.emit(a+1, so+ss.li(g, cs), do+ds.li(g, cd))
			}
			base += d.stride
		}
		return
	}
	clipped := func(base int) {
		lo, hi := max(base, d.clipLo), min(base+d.blen, d.clipHi)
		f.b.add(Run{SrcOff: so + ss.li(lo, cs), DstOff: do + ds.li(lo, cd), N: hi - lo, Count: 1})
	}
	k0, k1 := 0, d.count // the unclipped intervals
	if d.start < d.clipLo || d.start+d.blen > d.clipHi {
		clipped(d.start)
		k0 = 1
	}
	last := d.start + (d.count-1)*d.stride
	if k1 > k0 && last+d.blen > d.clipHi {
		k1--
	}
	if k1 > k0 {
		g := d.start + k0*d.stride
		f.b.add(vec(so+ss.li(g, cs), do+ds.li(g, cd), d.blen, k1-k0, ss.lstride(d.stride), ds.lstride(d.stride)))
	}
	if k1 < d.count {
		clipped(last)
	}
}

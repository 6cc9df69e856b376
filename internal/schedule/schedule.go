// Package schedule computes communication schedules for parallel data
// redistribution (Section 2.3 of the paper).
//
// A schedule specifies, for an array aligned to a source template and an
// array aligned to a destination template over the same global index
// space, exactly which elements every source rank must send to every
// destination rank and where those elements live in each side's canonical
// local buffer. Schedules are computed once and reused across transfers —
// and across different arrays, as long as they conform to the same
// template pair — which is the amortization the paper calls out as the
// reason templates exist.
//
// Schedule construction is not serialized through any coordinator: the
// per-rank views (OutgoingFor/IncomingFor) let each rank build or consume
// only its own part, and Build itself is pure CPU work callable
// independently on every rank.
package schedule

import (
	"fmt"
	"sync"
	"time"

	"mxn/internal/dad"
	"mxn/internal/obs"
)

// Schedule-layer instruments. Cache hit/miss counters are process-wide
// aggregates across every Cache instance (each Cache also keeps its own
// counts, see Stats); the build histogram captures the cost the paper's
// reuse argument amortizes away.
var (
	mBuilds      = obs.Default().Counter("schedule.builds")
	mFastBuilds  = obs.Default().Counter("schedule.fast_builds")
	mBuildNS     = obs.Default().Histogram("schedule.build_ns")
	mBuildElems  = obs.Default().Histogram("schedule.build_elems")
	mCacheHits   = obs.Default().Counter("schedule.cache_hits")
	mCacheMisses = obs.Default().Counter("schedule.cache_misses")
	mCacheJoins  = obs.Default().Counter("schedule.cache_joined_flights")
)

// Run is a vector of equal blocks moving between local buffers: Count
// blocks of N contiguous elements, block k starting at
// SrcOff + k·SrcStride in the source rank's buffer and landing at
// DstOff + k·DstStride in the destination rank's buffer. A contiguous
// run has Count 1 (and both strides 0). The run's packed order is its
// blocks in order, so a cyclic axis's thousands of one-element pieces
// are one Run, not one per element.
type Run struct {
	SrcOff, DstOff, N    int
	Count                int
	SrcStride, DstStride int
}

// Len returns the number of elements the run moves.
func (r Run) Len() int { return r.N * r.Count }

// vec builds a run in canonical form: a vector whose blocks abut on both
// sides is one contiguous block, and a single block carries no strides.
func vec(srcOff, dstOff, n, count, srcStride, dstStride int) Run {
	if count == 1 || (srcStride == n && dstStride == n) {
		return Run{SrcOff: srcOff, DstOff: dstOff, N: n * count, Count: 1}
	}
	return Run{SrcOff: srcOff, DstOff: dstOff, N: n, Count: count, SrcStride: srcStride, DstStride: dstStride}
}

// extend adds r's blocks, in order, to the progression of *last as far as
// they continue it: a block of last's length at last's next position (for
// a single-block last, at any position, which sets the strides) adds to
// its count. What is left of r, if anything, stays in *r, to be a run of
// its own; extend reports whether anything is.
func extend(last, r *Run) bool {
	if last.N != r.N {
		return true
	}
	ss, ds := last.SrcStride, last.DstStride
	if last.Count == 1 {
		ss, ds = r.SrcOff-last.SrcOff, r.DstOff-last.DstOff
	} else if r.SrcOff != last.SrcOff+last.Count*ss || r.DstOff != last.DstOff+last.Count*ds {
		return true
	}
	last.SrcStride, last.DstStride = ss, ds
	if r.Count > 1 && (r.SrcStride != ss || r.DstStride != ds) {
		last.Count++
		*r = vec(r.SrcOff+r.SrcStride, r.DstOff+r.DstStride, r.N, r.Count-1, r.SrcStride, r.DstStride)
		return true
	}
	last.Count += r.Count
	return false
}

// runBuilder assembles one pair's runs from blocks and vectors given in
// packed order. Blocks contiguous on both sides merge into one, and each
// maximal block then joins the run before it when it continues that run's
// progression. Every planner builds its plans through one, so a plan's
// runs are a function of its packed element order alone: the closed-form
// planner's vectors and the enumerators' blocks come out identical.
type runBuilder struct {
	out   []Run // the runs so far; nil in a pass that only counts them
	last  Run   // the last run committed
	n     int   // runs committed
	pend  Run   // the block still growing, if pend.N > 0
	elems int
}

// add appends r — a block, or a vector as vec makes it — to the packed
// order.
func (w *runBuilder) add(r Run) {
	w.elems += r.Len()
	p := &w.pend
	if p.N > 0 && p.SrcOff+p.N == r.SrcOff && p.DstOff+p.N == r.DstOff {
		p.N += r.N
		if r.Count == 1 {
			return
		}
		w.commit(p)
		r = vec(r.SrcOff+r.SrcStride, r.DstOff+r.DstStride, r.N, r.Count-1, r.SrcStride, r.DstStride)
	} else {
		w.commit(p)
	}
	// A vector's blocks are not contiguous on both sides with the ones
	// before them (vec would have made it one block), so all but its last
	// are maximal as they stand; the last may still grow.
	k := r.Count - 1
	if k > 0 {
		head := vec(r.SrcOff, r.DstOff, r.N, k, r.SrcStride, r.DstStride)
		w.commit(&head)
	}
	*p = Run{SrcOff: r.SrcOff + k*r.SrcStride, DstOff: r.DstOff + k*r.DstStride, N: r.N, Count: 1}
}

// commit appends a maximal block (or a vector of them) to the runs.
func (w *runBuilder) commit(r *Run) {
	if r.N == 0 {
		return
	}
	if w.n > 0 {
		more := extend(&w.last, r)
		if w.out != nil {
			w.out[w.n-1] = w.last
		}
		if !more {
			return
		}
	}
	w.last = *r
	if w.out != nil {
		w.out = append(w.out, *r)
	}
	w.n++
}

// finish commits the block still growing and returns the runs (nil when
// only counting).
func (w *runBuilder) finish() []Run {
	w.commit(&w.pend)
	w.pend = Run{}
	return w.out
}

// PairPlan is everything one (source rank, destination rank) pair must
// exchange: a list of runs totalling Elems elements, in packed order.
type PairPlan struct {
	SrcRank, DstRank int
	Runs             []Run
	Elems            int
}

// Schedule is a complete redistribution plan between two conforming
// templates. It contains one PairPlan per communicating rank pair; pairs
// with nothing to exchange are absent, so the schedule's size reflects the
// actual communication pattern.
type Schedule struct {
	Src, Dst *dad.Template
	Pairs    []PairPlan

	bySrc [][]int // source rank -> indices into Pairs
	byDst [][]int // destination rank -> indices into Pairs

	fast bool // built by the closed-form planner
}

// BuildOpts tunes schedule construction. The zero value is the default:
// use the closed-form fast path whenever the template pair admits it.
type BuildOpts struct {
	// DisableFastPath forces the enumerating builders even for
	// closed-form pairs. Used by the differential test harness and the
	// planning benchmark to compare the two planners; production callers
	// have no reason to set it.
	DisableFastPath bool
}

// Build computes the schedule for redistributing data from src to dst.
// The templates must conform (describe the same global index space).
//
// Regular template pairs whose per-axis intersections have closed forms
// (see dad.Template.ClosedFormPair) are planned arithmetically — the fast
// path that makes first contact between cohorts cheap; everything else
// falls back to interval/patch enumeration.
func Build(src, dst *dad.Template) (*Schedule, error) {
	return BuildWith(src, dst, BuildOpts{})
}

// BuildWith is Build with explicit options.
func BuildWith(src, dst *dad.Template, opts BuildOpts) (*Schedule, error) {
	if !src.Conforms(dst) {
		return nil, fmt.Errorf("schedule: templates do not conform: %v vs %v", src.Dims(), dst.Dims())
	}
	start := time.Now()
	s := &Schedule{Src: src, Dst: dst}
	switch {
	case !opts.DisableFastPath && src.ClosedFormPair(dst):
		s.fast = true
		s.buildFast()
		mFastBuilds.Inc()
	case !src.IsExplicit() && !dst.IsExplicit():
		s.buildAxiswise()
	default:
		s.buildGeneric()
	}
	s.index()
	mBuilds.Inc()
	mBuildNS.ObserveSince(start)
	mBuildElems.Observe(int64(s.TotalElems()))
	obs.Trace().Span(obs.EvScheduleBuild, "", -1, -1, int64(s.TotalElems()), start)
	return s, nil
}

// FastPath reports whether the schedule was built by the closed-form
// planner (as opposed to the interval/patch enumerators).
func (s *Schedule) FastPath() bool { return s.fast }

// index builds the per-rank lookup tables. Every constructor ends with it.
func (s *Schedule) index() {
	s.bySrc = indexBy(s.Pairs, s.Src.NumProcs(), func(p *PairPlan) int { return p.SrcRank })
	s.byDst = indexBy(s.Pairs, s.Dst.NumProcs(), func(p *PairPlan) int { return p.DstRank })
}

// indexBy lists, for each of n ranks, the indices of the pairs whose
// rank(pair) it is, in pair order. A counting pass sizes each rank's list,
// so all n lists are windows of one exact table.
func indexBy(pairs []PairPlan, n int, rank func(*PairPlan) int) [][]int {
	deg := make([]int, n)
	for i := range pairs {
		deg[rank(&pairs[i])]++
	}
	out := make([][]int, n)
	back := make([]int, len(pairs))
	off := 0
	for r, d := range deg {
		out[r] = back[off : off : off+d]
		off += d
	}
	for i := range pairs {
		r := rank(&pairs[i])
		out[r] = append(out[r], i)
	}
	return out
}

// buildAxiswise handles regular×regular template pairs. Because per-axis
// distributions are separable, the patch intersection of a rank pair is
// the cartesian product of per-axis interval intersections; computing the
// per-axis tables once avoids re-intersecting for every rank pair.
func (s *Schedule) buildAxiswise() {
	dims := s.Src.Dims()
	na := len(dims)

	// axisIx[a][cs][cd] = interval intersections between source coordinate
	// cs and destination coordinate cd along axis a.
	axisIx := make([][][][]dad.Interval, na)
	for a := 0; a < na; a++ {
		sx := s.Src.Axis(a)
		dx := s.Dst.Axis(a)
		tab := make([][][]dad.Interval, sx.Procs)
		srcIvs := make([][]dad.Interval, sx.Procs)
		dstIvs := make([][]dad.Interval, dx.Procs)
		for c := 0; c < sx.Procs; c++ {
			srcIvs[c] = sx.Intervals(dims[a], c)
		}
		for c := 0; c < dx.Procs; c++ {
			dstIvs[c] = dx.Intervals(dims[a], c)
		}
		for cs := 0; cs < sx.Procs; cs++ {
			tab[cs] = make([][]dad.Interval, dx.Procs)
			for cd := 0; cd < dx.Procs; cd++ {
				tab[cs][cd] = intersectIntervals(srcIvs[cs], dstIvs[cd])
			}
		}
		axisIx[a] = tab
	}

	// Enumerate communicating coordinate pairs axis by axis, skipping any
	// combination with an empty axis intersection.
	srcCoords := make([]int, na)
	dstCoords := make([]int, na)
	var walk func(a int)
	walk = func(a int) {
		if a == na {
			srcRank := s.Src.RankOf(srcCoords)
			dstRank := s.Dst.RankOf(dstCoords)
			ivLists := make([][]dad.Interval, na)
			for x := 0; x < na; x++ {
				ivLists[x] = axisIx[x][srcCoords[x]][dstCoords[x]]
			}
			plan := s.buildPairFromIntervalProduct(srcRank, dstRank, ivLists)
			if plan.Elems > 0 {
				s.Pairs = append(s.Pairs, plan)
			}
			return
		}
		sx := s.Src.Axis(a)
		dx := s.Dst.Axis(a)
		for cs := 0; cs < sx.Procs; cs++ {
			for cd := 0; cd < dx.Procs; cd++ {
				if len(axisIx[a][cs][cd]) == 0 {
					continue
				}
				srcCoords[a] = cs
				dstCoords[a] = cd
				walk(a + 1)
			}
		}
	}
	walk(0)
}

// buildPairFromIntervalProduct converts the per-axis interval intersection
// lists of one rank pair into runs, walking the intersection in global
// row-major order (the closed-form planner's packed order): every
// last-axis interval of a row is one contiguous block in both local
// layouts (see the layout contiguity argument in internal/dad: within one
// owned interval, local indices advance by one per global index for every
// distribution kind).
func (s *Schedule) buildPairFromIntervalProduct(srcRank, dstRank int, ivLists [][]dad.Interval) PairPlan {
	b := runBuilder{out: []Run{}}
	na := len(ivLists)
	idx := make([]int, na)
	var walk func(a int)
	walk = func(a int) {
		for _, iv := range ivLists[a] {
			if a == na-1 {
				idx[a] = iv.Lo
				b.add(Run{
					SrcOff: s.Src.LocalOffset(srcRank, idx),
					DstOff: s.Dst.LocalOffset(dstRank, idx),
					N:      iv.Len(),
					Count:  1,
				})
				continue
			}
			for g := iv.Lo; g < iv.Hi; g++ {
				idx[a] = g
				walk(a + 1)
			}
		}
	}
	walk(0)
	return PairPlan{SrcRank: srcRank, DstRank: dstRank, Runs: b.finish(), Elems: b.elems}
}

// buildGeneric handles template pairs involving explicit distributions by
// direct patch-list intersection, one rank pair at a time in (src, dst)
// order. Within a pair, destination patches are the outer loop and source
// patches the inner one.
func (s *Schedule) buildGeneric() {
	na := s.Src.NumAxes()
	srcPatches := make([][]dad.Patch, s.Src.NumProcs())
	for r := range srcPatches {
		srcPatches[r] = s.Src.Patches(r)
	}
	dstPatches := make([][]dad.Patch, s.Dst.NumProcs())
	for r := range dstPatches {
		dstPatches[r] = s.Dst.Patches(r)
	}
	for srcRank, sps := range srcPatches {
		for dstRank, dps := range dstPatches {
			b := runBuilder{out: []Run{}}
			for _, dp := range dps {
				for _, sp := range sps {
					if region, ok := sp.Intersect(dp); ok {
						addRegionRuns(&b, s.Src, s.Dst, srcRank, dstRank, region, na)
					}
				}
			}
			if b.elems > 0 {
				s.Pairs = append(s.Pairs, PairPlan{SrcRank: srcRank, DstRank: dstRank, Runs: b.finish(), Elems: b.elems})
			}
		}
	}
}

// addRegionRuns adds one block per last-axis row of the region.
func addRegionRuns(b *runBuilder, src, dst *dad.Template, srcRank, dstRank int, region dad.Patch, na int) {
	rowLen := region.Hi[na-1] - region.Lo[na-1]
	idx := make([]int, na)
	copy(idx, region.Lo)
	for {
		b.add(Run{
			SrcOff: src.LocalOffset(srcRank, idx),
			DstOff: dst.LocalOffset(dstRank, idx),
			N:      rowLen,
			Count:  1,
		})
		a := na - 2
		for a >= 0 {
			idx[a]++
			if idx[a] < region.Hi[a] {
				break
			}
			idx[a] = region.Lo[a]
			a--
		}
		if a < 0 {
			return
		}
	}
}

// intersectIntervals merges two sorted disjoint interval lists.
func intersectIntervals(a, b []dad.Interval) []dad.Interval {
	var out []dad.Interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].Lo
		if b[j].Lo > lo {
			lo = b[j].Lo
		}
		hi := a[i].Hi
		if b[j].Hi < hi {
			hi = b[j].Hi
		}
		if lo < hi {
			out = append(out, dad.Interval{Lo: lo, Hi: hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// OutgoingFor returns the plans where rank is the source.
func (s *Schedule) OutgoingFor(rank int) []PairPlan {
	out := make([]PairPlan, 0, len(s.bySrc[rank]))
	for _, i := range s.bySrc[rank] {
		out = append(out, s.Pairs[i])
	}
	return out
}

// IncomingFor returns the plans where rank is the destination.
func (s *Schedule) IncomingFor(rank int) []PairPlan {
	out := make([]PairPlan, 0, len(s.byDst[rank]))
	for _, i := range s.byDst[rank] {
		out = append(out, s.Pairs[i])
	}
	return out
}

// OutDegree returns the number of plans where rank is the source.
// Together with OutgoingAt it is the allocation-free alternative to
// OutgoingFor, used by the steady-state transfer engine.
func (s *Schedule) OutDegree(rank int) int { return len(s.bySrc[rank]) }

// OutgoingAt returns the i-th plan (0 ≤ i < OutDegree(rank)) where rank is
// the source, without allocating.
func (s *Schedule) OutgoingAt(rank, i int) PairPlan { return s.Pairs[s.bySrc[rank][i]] }

// InDegree returns the number of plans where rank is the destination.
func (s *Schedule) InDegree(rank int) int { return len(s.byDst[rank]) }

// IncomingAt returns the i-th plan (0 ≤ i < InDegree(rank)) where rank is
// the destination, without allocating.
func (s *Schedule) IncomingAt(rank, i int) PairPlan { return s.Pairs[s.byDst[rank][i]] }

// TotalElems returns the number of elements the schedule moves; for a
// complete redistribution this equals the template size.
func (s *Schedule) TotalElems() int {
	n := 0
	for _, p := range s.Pairs {
		n += p.Elems
	}
	return n
}

// NumMessages returns the number of communicating rank pairs.
func (s *Schedule) NumMessages() int { return len(s.Pairs) }

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("Schedule(%d→%d ranks, %d messages, %d elements)",
		s.Src.NumProcs(), s.Dst.NumProcs(), s.NumMessages(), s.TotalElems())
}

// PackSlice gathers a plan's elements from the source rank's local buffer
// into out, which must have length plan.Elems. Schedules are
// element-agnostic (runs are element counts and offsets), so one plan
// moves float32 or complex128 arrays exactly as it moves float64 ones. It
// is the whole message seen as one window: PackSliceRange at offset 0
// (split.go).
func PackSlice[T any](plan PairPlan, local, out []T) { PackSliceRange(plan, local, out, 0) }

// UnpackSlice scatters a packed buffer into the destination rank's local
// buffer.
func UnpackSlice[T any](plan PairPlan, local, data []T) { UnpackSliceRange(plan, local, data, 0) }

// Cache memoizes schedules by template pair. The cache is safe for
// concurrent use, and concurrent misses for one pair are deduplicated
// singleflight-style: the first caller builds, later callers wait on the
// in-flight build and share its result, so a planning stampede (every
// rank of a cohort hitting first contact — or a post-failure re-plan —
// at the same instant) runs the planner exactly once per pair.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry

	hits, misses, builds int
}

// cacheKey identifies a template pair by the templates' stored keys, so a
// lookup neither formats nor concatenates anything.
type cacheKey struct{ src, dst string }

// cacheEntry is one resident or in-flight schedule. ready is closed when
// the build completes; done mirrors it under the cache mutex so Get can
// classify hit-vs-join without receiving.
type cacheEntry struct {
	ready chan struct{}
	done  bool
	s     *Schedule
	err   error
}

// NewCache returns an empty schedule cache.
func NewCache() *Cache { return &Cache{m: map[cacheKey]*cacheEntry{}} }

// Get returns the schedule for (src, dst), building and retaining it on
// first use. Callers that arrive while another goroutine is building the
// same pair block until that build completes and receive its schedule
// (counted as misses — the plan was not resident when they asked).
func (c *Cache) Get(src, dst *dad.Template) (*Schedule, error) {
	key := cacheKey{src.Key(), dst.Key()}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		if e.done {
			c.hits++
			c.mu.Unlock()
			mCacheHits.Inc()
			return e.s, e.err
		}
		c.misses++
		c.mu.Unlock()
		mCacheMisses.Inc()
		mCacheJoins.Inc()
		<-e.ready
		return e.s, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.m[key] = e
	c.misses++
	c.builds++
	c.mu.Unlock()
	mCacheMisses.Inc()

	e.s, e.err = Build(src, dst)
	c.mu.Lock()
	e.done = true
	if e.err != nil {
		// Failed builds are not retained: a later Get retries. (Joined
		// waiters of this flight still observe the error.)
		if cur, ok := c.m[key]; ok && cur == e {
			delete(c.m, key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.s, e.err
}

// Stats returns cache hit and miss counts. A Get that joined an
// in-flight build counts as a miss.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Builds returns how many planner invocations the cache has performed —
// with singleflight dedup, at most one per distinct resident pair plus
// one per invalidation or failed build.
func (c *Cache) Builds() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds
}

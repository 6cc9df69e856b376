package schedule

import (
	"sync"
	"testing"

	"mxn/internal/dad"
)

// Concurrent misses for one template pair must be safe (run under -race),
// every caller must receive an equivalent plan, and later Gets must all
// return the single retained winner.
func TestCacheConcurrentMiss(t *testing.T) {
	src, err := dad.NewTemplate([]int{24}, []dad.AxisDist{dad.BlockAxis(3)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{24}, []dad.AxisDist{dad.CyclicAxis(4)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(src, dst)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	const workers = 16
	got := make([]*Schedule, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.Get(src, dst)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			got[w] = s
		}(w)
	}
	wg.Wait()

	for w, s := range got {
		if s == nil {
			continue
		}
		if len(s.Pairs) != len(want.Pairs) {
			t.Fatalf("worker %d: %d pairs, want %d", w, len(s.Pairs), len(want.Pairs))
		}
		for i, p := range s.Pairs {
			wp := want.Pairs[i]
			if p.SrcRank != wp.SrcRank || p.DstRank != wp.DstRank || p.Elems != wp.Elems {
				t.Fatalf("worker %d pair %d: (%d->%d, %d elems), want (%d->%d, %d elems)",
					w, i, p.SrcRank, p.DstRank, p.Elems, wp.SrcRank, wp.DstRank, wp.Elems)
			}
		}
	}

	hits, misses := c.Stats()
	if hits+misses != workers {
		t.Errorf("hits %d + misses %d != %d workers", hits, misses, workers)
	}
	if misses < 1 {
		t.Errorf("no miss recorded for a cold cache")
	}

	// The retained winner is stable: every post-race Get returns it.
	a, err := c.Get(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Get(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("post-race Gets returned different schedule instances")
	}
	if h2, _ := c.Stats(); h2 != hits+2 {
		t.Errorf("post-race Gets recorded %d hits, want %d", h2-hits, 2)
	}
}

// Regression test for the first-contact planning stampede: before the
// cache deduplicated in-flight builds, N concurrent misses for one pair
// ran the planner N times and discarded N−1 results. With singleflight
// dedup exactly one build runs; the joiners wait and share it.
func TestCacheStampedeSingleBuild(t *testing.T) {
	src, err := dad.NewTemplate([]int{240}, []dad.AxisDist{dad.BlockAxis(4)})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := dad.NewTemplate([]int{240}, []dad.AxisDist{dad.CyclicAxis(6)})
	if err != nil {
		t.Fatal(err)
	}

	c := NewCache()
	const workers = 32
	var wg sync.WaitGroup
	var release sync.WaitGroup
	release.Add(1)
	got := make([]*Schedule, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			release.Wait() // maximize overlap: all workers Get at once
			s, err := c.Get(src, dst)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			got[w] = s
		}(w)
	}
	release.Done()
	wg.Wait()

	if b := c.Builds(); b != 1 {
		t.Errorf("concurrent first contact ran the planner %d times, want 1", b)
	}
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Errorf("worker %d received a different schedule instance than worker 0", w)
		}
	}
	hits, misses := c.Stats()
	if hits+misses != workers {
		t.Errorf("hits %d + misses %d != %d workers", hits, misses, workers)
	}

	// Invalidation forces exactly one more build, not one per caller.
	if !c.Invalidate(src, dst) {
		t.Fatal("Invalidate found no entry")
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Get(src, dst); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if b := c.Builds(); b != 2 {
		t.Errorf("post-invalidation sweep brought total builds to %d, want 2", b)
	}
}

// Distinct pairs populated concurrently must each be cached independently.
func TestCacheConcurrentDistinctPairs(t *testing.T) {
	mk := func(np int) *dad.Template {
		out, err := dad.NewTemplate([]int{60}, []dad.AxisDist{dad.BlockAxis(np)})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	tpls := []*dad.Template{mk(2), mk(3), mk(4), mk(5)}
	c := NewCache()
	var wg sync.WaitGroup
	for _, src := range tpls {
		for _, dst := range tpls {
			wg.Add(1)
			go func(src, dst *dad.Template) {
				defer wg.Done()
				if _, err := c.Get(src, dst); err != nil {
					t.Errorf("Get(%s, %s): %v", src.Key(), dst.Key(), err)
				}
			}(src, dst)
		}
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != len(tpls)*len(tpls) {
		t.Errorf("hits %d + misses %d != %d Gets", hits, misses, len(tpls)*len(tpls))
	}
	// All pairs now resident: a second sweep is pure hits.
	for _, src := range tpls {
		for _, dst := range tpls {
			if _, err := c.Get(src, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	h2, m2 := c.Stats()
	if m2 != misses {
		t.Errorf("warm sweep added %d misses", m2-misses)
	}
	if h2 != hits+len(tpls)*len(tpls) {
		t.Errorf("warm sweep recorded %d hits, want %d", h2-hits, len(tpls)*len(tpls))
	}
}

// A cache hit formats, concatenates and allocates nothing: template keys
// are computed once, at construction, and the cache is keyed by the pair
// of them. The explicit template's key is the one that sorts its patches.
func TestCacheHitAllocatesNothing(t *testing.T) {
	explicit, err := dad.NewExplicitTemplate([]int{4, 4}, 2, []dad.Patch{
		dad.NewPatch([]int{0, 0}, []int{4, 2}, 1),
		dad.NewPatch([]int{0, 2}, []int{4, 4}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	block := tpl(t, []int{4, 4}, dad.BlockAxis(2), dad.CollapsedAxis())
	cyclic := tpl(t, []int{4, 4}, dad.CyclicAxis(2), dad.CollapsedAxis())
	c := NewCache()
	for _, p := range [][2]*dad.Template{{block, cyclic}, {explicit, block}} {
		if _, err := c.Get(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.Get(p[0], p[1]) }); allocs != 0 {
			t.Errorf("cache hit %s → %s allocates %v times", p[0].Key(), p[1].Key(), allocs)
		}
	}
}

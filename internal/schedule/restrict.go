package schedule

import (
	"mxn/internal/dad"
	"mxn/internal/obs"
)

var (
	mRestricts     = obs.Default().Counter("schedule.restricts")
	mPairsDropped  = obs.Default().Counter("schedule.restrict_pairs_dropped")
	mInvalidations = obs.Default().Counter("schedule.cache_invalidations")
)

// Restrict returns the sub-schedule of s containing only the pair plans
// whose source rank satisfies aliveSrc and whose destination rank
// satisfies aliveDst. This is the re-planning step of failure-aware
// redistribution: after a rank dies mid-transfer, the survivors finish
// against Restrict(s, ...) — the communication pattern among live ranks is
// unchanged by the death, so dropping the dead pairs is exactly the
// schedule the surviving rank set would have built for its share of data.
//
// The returned schedule shares s's templates and PairPlan backing data
// (plans are never mutated, only selected); a nil predicate means
// "everyone alive" on that side.
func Restrict(s *Schedule, aliveSrc, aliveDst func(rank int) bool) *Schedule {
	alive := func(pred func(int) bool, rank int) bool {
		return pred == nil || pred(rank)
	}
	out := &Schedule{Src: s.Src, Dst: s.Dst}
	out.Pairs = make([]PairPlan, 0, len(s.Pairs))
	for _, p := range s.Pairs {
		if alive(aliveSrc, p.SrcRank) && alive(aliveDst, p.DstRank) {
			out.Pairs = append(out.Pairs, p)
		} else {
			mPairsDropped.Inc()
		}
	}
	out.index()
	mRestricts.Inc()
	return out
}

// Invalidate drops the cached schedule for (src, dst), forcing the next
// Get to rebuild. Failure-aware transfers call it when membership changes:
// the cached plan still references the dead rank, and later epochs must
// re-plan from current templates. Returns whether an entry was present.
func (c *Cache) Invalidate(src, dst *dad.Template) bool {
	key := cacheKey{src.Key(), dst.Key()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok {
		return false
	}
	delete(c.m, key)
	mInvalidations.Inc()
	return true
}

// InvalidateAll empties the cache and returns how many schedules were
// dropped.
func (c *Cache) InvalidateAll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.m)
	c.m = map[cacheKey]*cacheEntry{}
	mInvalidations.Add(uint64(n))
	return n
}

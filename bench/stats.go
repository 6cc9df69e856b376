package main

import "sort"

// median returns the median of xs without reordering the caller's slice.
// An empty slice has median 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hiPercentile returns the highest percentile of xs that still has at
// least ten samples beyond it, and which percentile that is. With fewer
// than 20 samples it falls back to the median.
func hiPercentile(xs []float64) (value, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// block is one measurement block: the step times of a fixed number of
// workload steps and the times of the same number of floor operations run
// immediately afterwards, all in nanoseconds.
type block struct {
	step, floor []float64
}

// samples is what a run of blocks yields. Only per-block medians are kept
// unless keepAll is set, so the gated pass's memory does not grow with the
// number of blocks the host's speed happens to allow.
type samples struct {
	keepAll       bool
	step, floor   []float64 // per-block medians, ns
	ratio         []float64 // per-block step/floor ratio
	steps, floors []float64 // every sample, ns; only with keepAll
	attempted     int
	cpuNS         float64 // process CPU time spent inside step blocks
	scratch       block   // reused from block to block
}

// add records one block. Its ratio is the floor-normalised step time:
// median step time over the median time of the adjacent floor operations.
// Host-level speed changes that last longer than a block scale both
// medians alike and cancel.
func (s *samples) add(b block) {
	step, floor := median(b.step), median(b.floor)
	s.step = append(s.step, step)
	s.floor = append(s.floor, floor)
	s.ratio = append(s.ratio, step/floor)
	if s.keepAll {
		s.steps = append(s.steps, b.step...)
		s.floors = append(s.floors, b.floor...)
	}
}

// stepXFloor is the reported estimator: the median over blocks of the
// per-block ratio. No means and no minima: a slow phase moves only the
// blocks it starts and ends in, and the median ignores those.
func (s *samples) stepXFloor() float64 { return median(s.ratio) }

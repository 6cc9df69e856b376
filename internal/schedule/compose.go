package schedule

import (
	"fmt"
	"sort"
)

// Compose fuses two redistribution schedules into one: given s1 moving
// data from decomposition A to B and s2 moving from B to C, the result
// moves directly from A to C with no intermediate materialization in B.
//
// This implements the paper's Section 6 "super-component" idea: "An
// important pragmatic issue that arises with such pipelining is how
// efficiently redistribution functions compose with one another.
// Techniques must be explored to operate on data in place and avoid
// unnecessary data copies... combining several successive redistribution
// and translation components into a single optimized component."
//
// s1's destination and s2's source must be the *same* distribution (equal
// template keys), since composition happens in that intermediate local
// layout. The composed schedule is a plain Schedule: reusable, cacheable,
// and executable by every existing executor.
func Compose(s1, s2 *Schedule) (*Schedule, error) {
	if s1.Dst.Key() != s2.Src.Key() {
		return nil, fmt.Errorf("schedule: cannot compose: first stage lands in %s but second departs from %s",
			s1.Dst.Key(), s2.Src.Key())
	}

	// span is one contiguous block viewed from the intermediate (B)
	// rank's local buffer: elements [bOff, bOff+n) correspond to
	// [offOut, offOut+n) on the outer (A or C) rank.
	type span struct {
		bOff, n       int
		outer, offOut int // outer rank and its local offset
	}

	nB := s1.Dst.NumProcs()
	in := make([][]span, nB)  // per B rank: where its elements come from
	out := make([][]span, nB) // per B rank: where its elements go
	for _, p := range s1.Pairs {
		for _, r := range p.Runs {
			for k := 0; k < r.Count; k++ {
				in[p.DstRank] = append(in[p.DstRank], span{bOff: r.DstOff + k*r.DstStride, n: r.N, outer: p.SrcRank, offOut: r.SrcOff + k*r.SrcStride})
			}
		}
	}
	for _, p := range s2.Pairs {
		for _, r := range p.Runs {
			for k := 0; k < r.Count; k++ {
				out[p.SrcRank] = append(out[p.SrcRank], span{bOff: r.SrcOff + k*r.SrcStride, n: r.N, outer: p.DstRank, offOut: r.DstOff + k*r.DstStride})
			}
		}
	}

	type pairKey struct{ src, dst int }
	plans := map[pairKey]*runBuilder{}
	for b := 0; b < nB; b++ {
		ins, outs := in[b], out[b]
		sort.Slice(ins, func(i, j int) bool { return ins[i].bOff < ins[j].bOff })
		sort.Slice(outs, func(i, j int) bool { return outs[i].bOff < outs[j].bOff })
		// Merge-walk the two sorted span lists; every overlap becomes a
		// composed run from the A rank to the C rank.
		i, j := 0, 0
		for i < len(ins) && j < len(outs) {
			a, c := ins[i], outs[j]
			lo := max(a.bOff, c.bOff)
			hi := min(a.bOff+a.n, c.bOff+c.n)
			if lo < hi {
				key := pairKey{a.outer, c.outer}
				b := plans[key]
				if b == nil {
					b = &runBuilder{out: []Run{}}
					plans[key] = b
				}
				b.add(Run{
					SrcOff: a.offOut + (lo - a.bOff),
					DstOff: c.offOut + (lo - c.bOff),
					N:      hi - lo,
					Count:  1,
				})
			}
			if a.bOff+a.n < c.bOff+c.n {
				i++
			} else {
				j++
			}
		}
	}

	s := &Schedule{Src: s1.Src, Dst: s2.Dst}
	// Deterministic order: by source rank, then destination rank.
	keys := make([]pairKey, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, k := range keys {
		b := plans[k]
		s.Pairs = append(s.Pairs, PairPlan{SrcRank: k.src, DstRank: k.dst, Runs: b.finish(), Elems: b.elems})
	}
	s.index()

	if got, want := s.TotalElems(), s1.TotalElems(); got != want {
		return nil, fmt.Errorf("schedule: composition lost elements: %d of %d (first stage does not fully cover the intermediate)", got, want)
	}
	return s, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

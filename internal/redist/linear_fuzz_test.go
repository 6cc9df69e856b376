package redist

import (
	"reflect"
	"testing"

	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// fuzzBytes hands out fuzzer bytes as small bounded integers; an exhausted
// stream yields zeros, so every input decodes to some pair.
type fuzzBytes []byte

func (b *fuzzBytes) next(mod int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % mod
	*b = (*b)[1:]
	return v
}

// fuzzSide cuts positions [0, n) into runs and gives each run to one of
// procs ranks, to none (a gap) or to two (an overlap when they differ).
// Each rank lays its runs out back to back in its buffer, starting from a
// fuzzer-chosen run, so its offsets never alias. It returns the segments
// and the positions each rank holds.
func fuzzSide(b *fuzzBytes, n, procs int) ([][]schedule.Segment, []int) {
	runs := make([][]schedule.Segment, procs)
	for p := 0; p < n; {
		k := min(1+b.next(4), n-p)
		switch a := b.next(procs + 2); {
		case a < procs:
			runs[a] = append(runs[a], schedule.Segment{Pos: p, N: k})
		case a == procs+1:
			x, y := b.next(procs), b.next(procs)
			runs[x] = append(runs[x], schedule.Segment{Pos: p, N: k})
			if y != x {
				runs[y] = append(runs[y], schedule.Segment{Pos: p, N: k})
			}
		}
		p += k
	}
	held := make([]int, procs)
	for r, segs := range runs {
		if len(segs) == 0 {
			continue
		}
		first := b.next(len(segs))
		for i := range segs {
			g := &segs[(first+i)%len(segs)]
			g.Off = held[r]
			held[r] += g.N
		}
	}
	return runs, held
}

// fuzzTemplate is a 1-D generalized block template of size positions over
// len(held) ranks, each rank's buffer big enough for what it holds and
// rank 0's taking up the rest.
func fuzzTemplate(t *testing.T, size int, held []int) *dad.Template {
	sizes := append([]int(nil), held...)
	sizes[0] += size - sum(held)
	out, err := dad.NewTemplate([]int{size}, []dad.AxisDist{dad.GenBlockAxis(sizes)})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// fuzzCorrupt may break one rank's segment list in one of the ways a
// caller-supplied linearizer could: an empty or negative segment, two
// segments out of order, one overlapping the one before it, or one past
// the linear space or the rank's buffer.
func fuzzCorrupt(b *fuzzBytes, segs [][]schedule.Segment, size int) {
	r := b.next(len(segs))
	if len(segs[r]) == 0 {
		return
	}
	i := b.next(len(segs[r]))
	g := &segs[r][i]
	switch b.next(8) {
	case 0:
		g.N = -b.next(2)
	case 1:
		if i > 0 {
			segs[r][i-1], segs[r][i] = segs[r][i], segs[r][i-1]
		}
	case 2:
		if i > 0 {
			g.Pos = segs[r][i-1].Pos
		}
	case 3:
		g.Pos = size - g.N + 1 + b.next(2)
	case 4:
		g.Off = size
	case 5:
		g.Pos = -1
	}
}

// fuzzLinear is a linearizer whose ranks claim fuzzer-chosen segments.
type fuzzLinear struct {
	t    *dad.Template
	segs [][]schedule.Segment
}

func (l fuzzLinear) Template() *dad.Template              { return l.t }
func (l fuzzLinear) Segments(rank int) []schedule.Segment { return l.segs[rank] }

// wellFormed reports whether every rank of l holds non-empty segments in
// position order, without overlap, inside the space and its buffer.
func wellFormed(l fuzzLinear) bool {
	for r, segs := range l.segs {
		end := 0
		for _, g := range segs {
			if g.N <= 0 || g.Pos < end || g.Pos+g.N > l.t.Size() || g.Off < 0 || g.Off+g.N > l.t.LocalCount(r) {
				return false
			}
			end = g.Pos + g.N
		}
	}
	return true
}

// FuzzFromLinear lowers fuzzer-chosen pairs of segment lists — with gaps,
// overlaps across ranks, unsorted and empty segments, claims past the
// space or a buffer, and lengths that disagree — and holds FromLinear to a
// per-position reference: it must reject every malformed list, length
// mismatch, gap and overlap, and a schedule it accepts must move, under
// ExecuteLocalT, each destination position's value from the one source
// that holds it.
func FuzzFromLinear(f *testing.F) {
	f.Add([]byte{2, 1, 10, 0, 0, 1, 1, 2, 0, 3, 1, 0, 1, 0, 2})
	f.Add([]byte{3, 2, 23, 1, 3, 3, 2, 2, 0, 1, 1, 3, 2, 0, 0, 1, 2, 1, 0, 7})
	f.Add([]byte{1, 3, 15, 4, 0, 5, 1, 2, 9, 9, 1, 0, 3, 3, 3, 2, 0, 1, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		procs, dprocs, n := 1+b.next(4), 1+b.next(4), 1+b.next(24)
		ssegs, sheld := fuzzSide(&b, n, procs)
		dsegs, dheld := fuzzSide(&b, n, dprocs)
		size := max(n, sum(sheld), sum(dheld))
		dsize := size
		if b.next(16) == 0 {
			dsize++
		}
		src := fuzzLinear{fuzzTemplate(t, size, sheld), ssegs}
		dst := fuzzLinear{fuzzTemplate(t, dsize, dheld), dsegs}
		if b.next(2) == 0 {
			fuzzCorrupt(&b, ssegs, size)
		} else {
			fuzzCorrupt(&b, dsegs, dsize)
		}

		// The reference: who holds each position, where, and whether the
		// pair is one FromLinear must accept.
		ok := size == dsize && wellFormed(src) && wellFormed(dst)
		owner := make([][2]int, dsize) // source rank and offset, per position
		count := make([]int, dsize)
		if ok {
			for r, segs := range ssegs {
				for _, g := range segs {
					for p := g.Pos; p < g.Pos+g.N; p++ {
						owner[p] = [2]int{r, g.Off + p - g.Pos}
						count[p]++
					}
				}
			}
			for p := range count {
				ok = ok && count[p] <= 1
			}
			for _, segs := range dsegs {
				for _, g := range segs {
					for p := g.Pos; p < g.Pos+g.N; p++ {
						ok = ok && count[p] == 1
					}
				}
			}
		}

		s, err := schedule.FromLinear(src, dst)
		if !ok {
			if err == nil {
				t.Fatalf("accepted a malformed, mismatched, gapped or overlapping pair:\nsrc %v\ndst %v", ssegs, dsegs)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected a well-formed pair: %v\nsrc %v\ndst %v", err, ssegs, dsegs)
		}
		srcLocals := make([][]float64, procs)
		for r := range srcLocals {
			srcLocals[r] = make([]float64, src.t.LocalCount(r))
			for i := range srcLocals[r] {
				srcLocals[r][i] = float64(1000*r + i + 1)
			}
		}
		got := make([][]float64, dprocs)
		want := make([][]float64, dprocs)
		for d, segs := range dsegs {
			got[d] = make([]float64, dst.t.LocalCount(d))
			want[d] = make([]float64, dst.t.LocalCount(d))
			for _, g := range segs {
				for p := g.Pos; p < g.Pos+g.N; p++ {
					want[d][g.Off+p-g.Pos] = srcLocals[owner[p][0]][owner[p][1]]
				}
			}
		}
		ExecuteLocalT(s, srcLocals, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("moved %v, want %v\nsrc %v\ndst %v", got, want, ssegs, dsegs)
		}
	})
}

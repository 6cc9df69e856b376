package comm

import (
	"fmt"
	"sort"
	"time"
)

// Collective operations. Like their MPI counterparts, these must be called
// by every rank of the communicator's group, and every rank must execute
// the same sequence of collectives. Because point-to-point delivery between
// a pair of ranks is FIFO per tag, successive collectives by the same group
// cannot cross-match and need no epoch counters.
//
// Every exported collective increments comm.collective_participations
// exactly once per calling rank; composite collectives (Allgather,
// Barrier, the reductions) delegate to unexported helpers so their
// building blocks are not double-counted.

// Barrier blocks until every rank of the group has entered it.
func (c *Comm) Barrier() {
	mCollectives.Inc()
	c.allgather(nil)
}

// BarrierTimeoutError reports a barrier that did not complete: either some
// ranks failed to arrive within the deadline (Missing lists them, in group
// rank order), or the coordinating rank 0 itself never answered
// (RootLost). It is the typed evidence chaos tests use to assert a clean
// abort instead of a deadlock.
type BarrierTimeoutError struct {
	Missing  []int
	RootLost bool
}

func (e *BarrierTimeoutError) Error() string {
	if e.RootLost {
		return "comm: barrier timed out: coordinator (group rank 0) did not answer"
	}
	return fmt.Sprintf("comm: barrier timed out: ranks %v failed to arrive", e.Missing)
}

// BarrierTimeout is Barrier bounded by a deadline: it blocks until every
// rank of the group has entered it or until d has elapsed at the
// coordinator, whichever comes first. On success it returns (nil, nil); if
// some ranks never arrived, every rank that did arrive receives the same
// *BarrierTimeoutError listing the missing group ranks.
//
// Group rank 0 coordinates: it collects arrivals for up to d, then
// broadcasts the outcome. Non-root ranks wait up to 2·d plus a grace
// period for that outcome, so ranks entering at slightly different times
// still agree; a non-root rank that never hears back (rank 0 died) reports
// RootLost. Like Barrier, every live rank of the group must call it.
func (c *Comm) BarrierTimeout(d time.Duration) ([]int, error) {
	mCollectives.Inc()
	if c.Size() == 1 {
		return nil, nil
	}
	wme := c.group.ranks[c.rank]
	if c.rank != 0 {
		c.send(0, tagBarrierArrive, nil)
		wait := 2*d + 500*time.Millisecond
		m, ok, _ := c.group.world.st().boxes[wme].take(c.group.gid, c.group.ranks[0], tagBarrierResult, true, wait, nil)
		if !ok {
			mBarrierExpiry.Inc()
			return nil, &BarrierTimeoutError{RootLost: true}
		}
		missing := m.payload.([]int)
		if len(missing) == 0 {
			return nil, nil
		}
		return missing, &BarrierTimeoutError{Missing: missing}
	}

	arrived := make([]bool, c.Size())
	arrived[0] = true
	need := c.Size() - 1
	deadline := time.Now().Add(d)
	for need > 0 {
		remain := time.Until(deadline)
		if remain <= 0 {
			break
		}
		m, ok, _ := c.group.world.st().boxes[wme].take(c.group.gid, AnySource, tagBarrierArrive, true, remain, nil)
		if !ok {
			break
		}
		if g := c.groupRankOf(m.from); g >= 0 && !arrived[g] {
			arrived[g] = true
			need--
		}
	}
	missing := []int{}
	for g, ok := range arrived {
		if !ok {
			missing = append(missing, g)
		}
	}
	sort.Ints(missing)
	for peer := 1; peer < c.Size(); peer++ {
		c.send(peer, tagBarrierResult, missing)
	}
	if len(missing) == 0 {
		return nil, nil
	}
	mBarrierExpiry.Inc()
	return missing, &BarrierTimeoutError{Missing: missing}
}

// Bcast distributes root's value to every rank and returns it. Non-root
// callers pass any value (conventionally nil); the root's value wins.
func (c *Comm) Bcast(root int, v any) any {
	mCollectives.Inc()
	return c.bcast(root, v)
}

func (c *Comm) bcast(root int, v any) any {
	if c.Size() == 1 {
		return v
	}
	if c.rank == root {
		for peer := 0; peer < c.Size(); peer++ {
			if peer != root {
				c.send(peer, tagBcast, v)
			}
		}
		return v
	}
	m := c.recv(root, tagBcast)
	return m.payload
}

// gather collects one value from every rank at root. At the root the
// returned slice is indexed by group rank; at other ranks it is nil.
func (c *Comm) gather(root int, v any) []any {
	if c.rank != root {
		c.send(root, tagGather, v)
		return nil
	}
	out := make([]any, c.Size())
	out[c.rank] = v
	for peer := 0; peer < c.Size(); peer++ {
		if peer == root {
			continue
		}
		m := c.recv(peer, tagGather)
		out[peer] = m.payload
	}
	return out
}

// Allgather collects one value from every rank at every rank. The returned
// slice is indexed by group rank.
func (c *Comm) Allgather(v any) []any {
	mCollectives.Inc()
	return c.allgather(v)
}

func (c *Comm) allgather(v any) []any {
	all := c.gather(0, v)
	got := c.bcast(0, all)
	return got.([]any)
}

// Alltoall sends values[j] to group rank j and returns the values received
// from every rank, indexed by source rank. values must have length Size().
func (c *Comm) Alltoall(values []any) []any {
	mCollectives.Inc()
	return c.alltoall(values)
}

func (c *Comm) alltoall(values []any) []any {
	if len(values) != c.Size() {
		panic(fmt.Sprintf("comm: Alltoall needs %d values, got %d", c.Size(), len(values)))
	}
	out := make([]any, c.Size())
	out[c.rank] = values[c.rank]
	for peer := 0; peer < c.Size(); peer++ {
		if peer != c.rank {
			c.send(peer, tagAlltoall, values[peer])
		}
	}
	for peer := 0; peer < c.Size(); peer++ {
		if peer != c.rank {
			m := c.recv(peer, tagAlltoall)
			out[peer] = m.payload
		}
	}
	return out
}

// AlltoallvFloat64 is the irregular all-to-all exchange the DCA framework
// exposes to applications: send[j] goes to rank j, and the result is
// indexed by source rank. Unlike MPI no displacement bookkeeping is needed
// because slices carry their lengths.
func (c *Comm) AlltoallvFloat64(send [][]float64) [][]float64 {
	mCollectives.Inc()
	vals := make([]any, len(send))
	for i, s := range send {
		vals[i] = s
	}
	got := c.alltoall(vals)
	out := make([][]float64, len(got))
	for i, g := range got {
		if g != nil {
			out[i] = g.([]float64)
		}
	}
	return out
}

// ReduceOp names a reduction operator for AllreduceFloat64/AllreduceInt.
type ReduceOp int

// Supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

func (op ReduceOp) apply(a, b float64) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	}
	panic(fmt.Sprintf("comm: unknown reduce op %d", op))
}

// reduceFloat64 folds one float64 per rank at root. Non-root callers
// receive 0 and ok=false.
func (c *Comm) reduceFloat64(root int, v float64, op ReduceOp) (float64, bool) {
	all := c.gather(root, v)
	if all == nil {
		return 0, false
	}
	acc := all[0].(float64)
	for _, x := range all[1:] {
		acc = op.apply(acc, x.(float64))
	}
	return acc, true
}

// AllreduceFloat64 folds one float64 per rank and returns the result at
// every rank.
func (c *Comm) AllreduceFloat64(v float64, op ReduceOp) float64 {
	mCollectives.Inc()
	r, _ := c.reduceFloat64(0, v, op)
	got := c.bcast(0, r)
	return got.(float64)
}

// AllreduceInt folds one int per rank with OpSum/OpMin/OpMax semantics and
// returns the result at every rank.
func (c *Comm) AllreduceInt(v int, op ReduceOp) int {
	mCollectives.Inc()
	r, _ := c.reduceFloat64(0, float64(v), op)
	got := c.bcast(0, r)
	return int(got.(float64))
}

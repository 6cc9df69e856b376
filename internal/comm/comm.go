// Package comm provides an in-process message-passing runtime with
// MPI-like semantics: a fixed set of ranks (one goroutine each), tagged
// point-to-point messages, communicator groups, and the collective
// operations the M×N middleware needs (barrier, broadcast, gather,
// allgather, reduce, alltoallv).
//
// The package substitutes for MPI in this reproduction: the redistribution
// and PRMI algorithms only depend on MPI's semantics — ranked processes,
// tagged ordered messages between pairs, and group collectives — all of
// which are preserved here. Receives block until a matching message
// arrives, so incorrect orderings deadlock exactly as they would under MPI
// (which the Figure 5 experiment relies on).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/obs"
)

// Runtime instruments. The queue-depth gauge tracks messages queued in
// mailboxes process-wide (put minus take), the closest analogue of an MPI
// implementation's unexpected-message queue length; a persistently growing
// value means receivers are falling behind their senders.
var (
	mMsgsSent      = obs.Default().Counter("comm.msgs_sent")
	mMsgsRecv      = obs.Default().Counter("comm.msgs_recv")
	mRecvWaits     = obs.Default().Counter("comm.recv_timeouts_expired")
	mCollectives   = obs.Default().Counter("comm.collective_participations")
	mQueueDepth    = obs.Default().Gauge("comm.queue_depth")
	mRanksKilled   = obs.Default().Counter("comm.ranks_killed")
	mDroppedDead   = obs.Default().Counter("comm.msgs_dropped_dead_rank")
	mBarrierExpiry = obs.Default().Counter("comm.barrier_timeouts")
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// message is a queued point-to-point message. gid identifies the
// communicator group: like MPI communicators, distinct groups are isolated
// traffic domains even over the same ranks.
type message struct {
	from    int // world rank of sender
	tag     int
	gid     uint64
	payload any
}

// Releaser is implemented by payloads that own pooled buffers (PRMI
// messages). Sends transfer ownership to the receiver; when comm discards
// a message instead of delivering it — an end of the pair is dead, the
// remote binding is torn down, or Kill empties a mailbox — it calls
// Release so the buffers go back to their pool rather than to the GC.
type Releaser interface{ Release() }

// drop discards an undeliverable payload.
func drop(payload any) {
	mDroppedDead.Inc()
	if r, ok := payload.(Releaser); ok {
		r.Release()
	}
}

// mailbox is the receive queue of one world rank.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs []message
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put queues m for the rank whose death flag is dead. A rank killed since
// the sender's check drops it instead: the flag is re-read under the
// mailbox lock, which Kill takes after setting it, so a message either
// lands before Kill empties the box or is released here.
func (mb *mailbox) put(m message, dead *atomic.Bool) {
	mb.mu.Lock()
	if dead.Load() {
		mb.mu.Unlock()
		drop(m.payload)
		return
	}
	mb.msgs = append(mb.msgs, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
	mMsgsSent.Inc()
	mQueueDepth.Add(1)
}

// take removes and returns the first message matching (group, from, tag),
// blocking until one arrives.
func (mb *mailbox) take(gid uint64, from, tag int) message {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if m.gid == gid && (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag) {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				mMsgsRecv.Inc()
				mQueueDepth.Add(-1)
				return m
			}
		}
		mb.cond.Wait()
	}
}

// takeTimeout is take bounded by a deadline; ok reports whether a matching
// message arrived in time.
func (mb *mailbox) takeTimeout(gid uint64, from, tag int, d time.Duration) (message, bool) {
	deadline := time.Now().Add(d)
	// The waker takes the mutex so its broadcast cannot slip into the gap
	// between the waiter's deadline check and its cond.Wait.
	timer := time.AfterFunc(d, func() {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	})
	defer timer.Stop()
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.msgs {
			if m.gid == gid && (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag) {
				mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
				mMsgsRecv.Inc()
				mQueueDepth.Add(-1)
				return m, true
			}
		}
		if !time.Now().Before(deadline) {
			mRecvWaits.Inc()
			return message{}, false
		}
		mb.cond.Wait()
	}
}

// has reports whether a message matching (group, from, tag) is queued.
func (mb *mailbox) has(gid uint64, from, tag int) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, m := range mb.msgs {
		if m.gid == gid && m.from == from && m.tag == tag {
			return true
		}
	}
	return false
}

// tryTake is the non-blocking variant of take.
func (mb *mailbox) tryTake(gid uint64, from, tag int) (message, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for i, m := range mb.msgs {
		if m.gid == gid && (from == AnySource || m.from == from) && (tag == AnyTag || m.tag == tag) {
			mb.msgs = append(mb.msgs[:i], mb.msgs[i+1:]...)
			mMsgsRecv.Inc()
			mQueueDepth.Add(-1)
			return m, true
		}
	}
	return message{}, false
}

// World is a set of ranks that can exchange messages. It plays the role
// of MPI_COMM_WORLD's underlying process set, except that — unlike MPI —
// it can grow: Grow admits new ranks at the top of the rank space so an
// online cohort resize (core.ProposeResize) has somewhere to put joiners.
//
// The rank array is held behind an atomic pointer: sends and receives
// load the current state with one atomic read (no lock on the hot path),
// and Grow installs a copied, extended state. Mailboxes and per-rank
// death flags are shared by pointer between states, so messages queued
// and Kill marks survive a concurrent grow.
type World struct {
	growMu sync.Mutex // serializes Grow
	state  atomic.Pointer[worldState]
}

// worldState is one immutable snapshot of the world's rank array. remote
// is nil for local ranks and names the ConnectPeer binding for ranks that
// live on the other side of a connection.
type worldState struct {
	boxes  []*mailbox
	dead   []*atomic.Bool
	remote []*RemotePeer
}

func newWorldState(n int) *worldState {
	st := &worldState{
		boxes:  make([]*mailbox, n),
		dead:   make([]*atomic.Bool, n),
		remote: make([]*RemotePeer, n),
	}
	for i := range st.boxes {
		st.boxes[i] = newMailbox()
		st.dead[i] = &atomic.Bool{}
	}
	return st
}

// NewWorld creates a world with n ranks.
func NewWorld(n int) *World {
	if n <= 0 {
		panic(fmt.Sprintf("comm: world size must be positive, got %d", n))
	}
	w := &World{}
	w.state.Store(newWorldState(n))
	return w
}

// st returns the current world snapshot.
func (w *World) st() *worldState { return w.state.Load() }

// Size returns the number of ranks currently in the world.
func (w *World) Size() int { return len(w.st().boxes) }

// Grow extends the world to newSize ranks, returning the world ranks
// that were added (empty when newSize equals the current size). The new
// ranks are alive with empty mailboxes; existing ranks, their queued
// messages, and their death marks are untouched, and communicators
// created before the grow keep working — a group is a fixed rank list,
// so growing the world never changes any existing communicator's
// membership (again the MPI model: new ranks only communicate through
// groups created after they exist). Shrinking is not a World operation:
// a departing rank is either simply abandoned (its mailbox idle) or
// Killed; the rank space, like an MPI world, never renumbers.
func (w *World) Grow(newSize int) []int {
	w.growMu.Lock()
	defer w.growMu.Unlock()
	cur := w.st()
	if newSize < len(cur.boxes) {
		panic(fmt.Sprintf("comm: Grow to %d below current world size %d", newSize, len(cur.boxes)))
	}
	if newSize == len(cur.boxes) {
		return nil
	}
	next := &worldState{
		boxes:  make([]*mailbox, newSize),
		dead:   make([]*atomic.Bool, newSize),
		remote: make([]*RemotePeer, newSize),
	}
	copy(next.boxes, cur.boxes)
	copy(next.dead, cur.dead)
	copy(next.remote, cur.remote)
	added := make([]int, 0, newSize-len(cur.boxes))
	for r := len(cur.boxes); r < newSize; r++ {
		next.boxes[r] = newMailbox()
		next.dead[r] = &atomic.Bool{}
		added = append(added, r)
	}
	w.state.Store(next)
	return added
}

// Kill marks a world rank crashed: its queued messages are discarded, and
// from now on every message sent to it or from it silently disappears —
// the observable behavior of a process that died without a FIN. Kill does
// not stop the rank's goroutine (goroutines cannot be killed); chaos
// harnesses pair Kill with a cooperative exit in the victim and a
// liveness detector (core.StartHeartbeats) on the survivors. Idempotent.
func (w *World) Kill(rank int) {
	st := w.st()
	if rank < 0 || rank >= len(st.boxes) {
		panic(fmt.Sprintf("comm: kill of rank %d outside world of size %d", rank, len(st.boxes)))
	}
	if st.dead[rank].Swap(true) {
		return
	}
	mRanksKilled.Inc()
	// A crashed process loses its unreceived messages with it.
	b := st.boxes[rank]
	b.mu.Lock()
	lost := b.msgs
	mQueueDepth.Add(-int64(len(lost)))
	b.msgs = nil
	b.mu.Unlock()
	for _, m := range lost {
		if r, ok := m.payload.(Releaser); ok {
			r.Release()
		}
	}
	b.cond.Broadcast()
}

// Alive reports whether a world rank has not been killed.
func (w *World) Alive(rank int) bool { return !w.st().dead[rank].Load() }

// Comms returns one communicator handle per world rank, all belonging to a
// single group spanning the whole world (the MPI_COMM_WORLD analogue).
func (w *World) Comms() []*Comm {
	ranks := make([]int, w.Size())
	for i := range ranks {
		ranks[i] = i
	}
	return w.Group(ranks)
}

// Group creates a new communicator over the given world ranks and returns
// one handle per member, in group order. Collectives on the returned
// communicators involve exactly these ranks.
func (w *World) Group(ranks []int) []*Comm {
	size := w.Size()
	g := &group{
		world: w,
		ranks: append([]int(nil), ranks...),
		gid:   nextGroupID.Add(1),
	}
	cs := make([]*Comm, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= size {
			panic(fmt.Sprintf("comm: rank %d outside world of size %d", r, size))
		}
		cs[i] = &Comm{group: g, rank: i}
	}
	return cs
}

// Run spawns n goroutines, one per rank of a fresh world-spanning
// communicator, and blocks until all have returned. It is the common way to
// stand up a parallel cohort in tests, examples and benchmarks.
func Run(n int, body func(c *Comm)) {
	w := NewWorld(n)
	cs := w.Comms()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(c *Comm) {
			defer wg.Done()
			body(c)
		}(cs[i])
	}
	wg.Wait()
}

// nextGroupID hands out process-unique communicator identities.
var nextGroupID atomic.Uint64

// group is the shared state of one communicator.
type group struct {
	world *World
	ranks []int // group rank -> world rank
	gid   uint64
}

// Comm is one rank's handle on a communicator. All methods are relative to
// the group: Send/Recv peer arguments and collective roots are group ranks.
type Comm struct {
	group *group
	rank  int       // this handle's rank within the group
	batch sendBatch // messages for remote peers, held between Cork and Flush
}

// Rank returns the caller's rank within the communicator's group.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator's group.
func (c *Comm) Size() int { return len(c.group.ranks) }

// WorldRank returns the underlying world rank of this handle.
func (c *Comm) WorldRank() int { return c.group.ranks[c.rank] }

// Send delivers payload to group rank "to" with the given tag. Sends are
// buffered and never block. Tags must be non-negative; negative tags are
// reserved for internal use.
func (c *Comm) Send(to, tag int, payload any) {
	if tag < 0 {
		panic(fmt.Sprintf("comm: user tags must be non-negative, got %d", tag))
	}
	c.send(to, tag, payload)
}

// DeliverableLocal reports whether a message sent now to group rank "to"
// would be enqueued into an in-process mailbox: the destination resolves
// locally (no remote peer binding) and neither end is currently marked
// dead. The transfer engine uses it to decide whether a chunk may be lent
// instead of packed — the receiver reads the sender's source through the
// payload, which an in-process mailbox delivers by reference; a remote or
// dead destination is not eligible. The answer is advisory: world state
// can change between the check and the send. A destination that dies in
// between has the payload dropped and released (Releaser), and ranks are
// bound to remote peers before they run (ConnectPeer).
func (c *Comm) DeliverableLocal(to int) bool {
	if to < 0 || to >= len(c.group.ranks) {
		return false
	}
	st := c.group.world.st()
	wr := c.group.ranks[to]
	wme := c.group.ranks[c.rank]
	return st.remote[wr] == nil && !st.dead[wr].Load() && !st.dead[wme].Load()
}

func (c *Comm) send(to, tag int, payload any) {
	if to < 0 || to >= len(c.group.ranks) {
		panic(fmt.Sprintf("comm: send to rank %d outside group of size %d", to, len(c.group.ranks)))
	}
	st := c.group.world.st()
	wr := c.group.ranks[to]
	wme := c.group.ranks[c.rank]
	// A dead rank neither produces nor consumes traffic: messages to or
	// from it vanish, exactly as they would with a crashed MPI process.
	if st.dead[wr].Load() || st.dead[wme].Load() {
		drop(payload)
		return
	}
	if rp := st.remote[wr]; rp != nil {
		c.batch.add(rp, wme, wr, tag, c.group.gid, payload)
		return
	}
	st.boxes[wr].put(message{from: wme, tag: tag, gid: c.group.gid, payload: payload}, st.dead[wr])
}

// Recv blocks until a message with a matching source and tag arrives and
// returns its payload and actual source group rank. Use AnySource/AnyTag as
// wildcards.
func (c *Comm) Recv(from, tag int) (payload any, source int) {
	m := c.recv(from, tag)
	return m.payload, c.groupRankOf(m.from)
}

func (c *Comm) recv(from, tag int) message {
	wfrom := from
	if from != AnySource {
		if from < 0 || from >= len(c.group.ranks) {
			panic(fmt.Sprintf("comm: recv from rank %d outside group of size %d", from, len(c.group.ranks)))
		}
		wfrom = c.group.ranks[from]
	}
	wr := c.group.ranks[c.rank]
	return c.group.world.st().boxes[wr].take(c.group.gid, wfrom, tag)
}

// RecvTimeout is Recv bounded by a timeout: ok reports whether a matching
// message arrived before it expired. It is the primitive the PRMI layer
// uses to turn silent link failures into typed timeout errors.
func (c *Comm) RecvTimeout(from, tag int, d time.Duration) (payload any, source int, ok bool) {
	wfrom := from
	if from != AnySource {
		if from < 0 || from >= len(c.group.ranks) {
			panic(fmt.Sprintf("comm: recv from rank %d outside group of size %d", from, len(c.group.ranks)))
		}
		wfrom = c.group.ranks[from]
	}
	wr := c.group.ranks[c.rank]
	m, ok := c.group.world.st().boxes[wr].takeTimeout(c.group.gid, wfrom, tag, d)
	if !ok {
		return nil, 0, false
	}
	return m.payload, c.groupRankOf(m.from), true
}

// TryRecv is the non-blocking variant of Recv. ok reports whether a
// matching message was available.
func (c *Comm) TryRecv(from, tag int) (payload any, source int, ok bool) {
	wfrom := from
	if from != AnySource {
		wfrom = c.group.ranks[from]
	}
	wr := c.group.ranks[c.rank]
	m, ok := c.group.world.st().boxes[wr].tryTake(c.group.gid, wfrom, tag)
	if !ok {
		return nil, 0, false
	}
	return m.payload, c.groupRankOf(m.from), true
}

func (c *Comm) groupRankOf(worldRank int) int {
	for g, wr := range c.group.ranks {
		if wr == worldRank {
			return g
		}
	}
	return -1
}

// Sub creates a sub-communicator over the given group ranks of c. Every
// member of the subgroup must call Sub with the identical rank list; each
// caller receives its own handle. Callers not in ranks receive nil.
//
// Sub is collective over c's full group so that the shared state is built
// exactly once.
func (c *Comm) Sub(ranks []int) *Comm {
	// Rank 0 of the parent builds the subgroup communicators and scatters
	// the handles; this mirrors MPI_Comm_create's collective nature.
	worldRanks := make([]int, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= len(c.group.ranks) {
			panic(fmt.Sprintf("comm: Sub rank %d outside group of size %d", r, len(c.group.ranks)))
		}
		worldRanks[i] = c.group.ranks[r]
	}
	var mine *Comm
	if c.rank == 0 {
		subs := c.group.world.Group(worldRanks)
		handles := make([]any, len(c.group.ranks))
		for i, r := range ranks {
			handles[r] = subs[i]
		}
		for peer := 1; peer < len(c.group.ranks); peer++ {
			c.send(peer, tagSub, handles[peer])
		}
		if h := handles[0]; h != nil {
			mine = h.(*Comm)
		}
	} else {
		m := c.recv(0, tagSub)
		if m.payload != nil {
			mine = m.payload.(*Comm)
		}
	}
	return mine
}

// Split partitions the communicator by color, like MPI_Comm_split: every
// rank of the group must call it; ranks passing the same non-negative
// color form a new communicator, ordered by their rank in the parent.
// Ranks passing a negative color opt out and receive nil.
//
// Unlike Sub, Split is uniformly collective — no rank needs to know any
// other rank's membership — which makes it the safe way to carve a world
// into model cohorts.
func (c *Comm) Split(color int) *Comm {
	colors := c.Allgather(color)
	var mine *Comm
	if c.rank == 0 {
		// Build one subgroup per distinct non-negative color, members in
		// parent-rank order.
		groupsByColor := map[int][]int{}
		order := []int{}
		for r, v := range colors {
			col := v.(int)
			if col < 0 {
				continue
			}
			if _, seen := groupsByColor[col]; !seen {
				order = append(order, col)
			}
			groupsByColor[col] = append(groupsByColor[col], r)
		}
		handles := make([]any, len(c.group.ranks))
		for _, col := range order {
			members := groupsByColor[col]
			worldRanks := make([]int, len(members))
			for i, r := range members {
				worldRanks[i] = c.group.ranks[r]
			}
			subs := c.group.world.Group(worldRanks)
			for i, r := range members {
				handles[r] = subs[i]
			}
		}
		for peer := 1; peer < len(c.group.ranks); peer++ {
			c.send(peer, tagSplit, handles[peer])
		}
		if h := handles[0]; h != nil {
			mine = h.(*Comm)
		}
	} else {
		m := c.recv(0, tagSplit)
		if m.payload != nil {
			mine = m.payload.(*Comm)
		}
	}
	return mine
}

// Internal tags. User tags are non-negative, so any negative constant is
// collision-free; distinct constants keep distinct protocols from matching
// each other's messages.
const (
	tagSub = -1000 - iota
	tagSplit
	tagBcast
	tagGather
	tagScatter
	tagAlltoall
	tagBarrierArrive
	tagBarrierResult
)

// The transfer engine's messages, pools and schedule accessors. Every
// Transfer — fenced or unfenced, budgeted or not — runs its schedule
// through the single send/recv loop in budget.go, which owns everything
// that must behave identically (chunking, credit, epoch stamping,
// liveness checks, stale-epoch rejection, suspicion, drain-after-error
// hygiene, metrics, tracing). The schedule says which pairwise messages
// exist and where each element of one lives on either side.

package redist

import (
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
)

// xferMsg is the one wire payload of the transfer engine: an element-kind
// tag, an epoch stamp (0 on unfenced transfers), and the packed elements
// as raw bytes.
//
// Messages are pooled: senders obtain one with newMsg, receivers return it
// with recycle after unpacking. A message comm drops in transit (a dead
// end of the pair, a mailbox emptied by Kill, a torn-down remote peer) is
// recycled through Release, the comm.Releaser hook. A lent chunk (see
// lender) is the exception: its sender keeps it, and recycle only hands
// it back.
type xferMsg struct {
	epoch uint64
	kind  dad.ElemKind
	elems int
	data  []byte
	// frame, when non-nil, is the received frame a remote message was
	// decoded from: data views the elements in place and recycle returns
	// the frame to the pool instead of data.
	frame []byte
	// mark sets apart the data-less messages on the data tag: a budgeted
	// transfer's ack, sent back once a chunk is disposed of (budget.go),
	// and a receiver's ready token (remotelend.go).
	mark byte
	// lender, when non-nil, marks a lent chunk: data is the sender's whole
	// source slice, not a pooled buffer, and the chunk is the window
	// [off, off+elems) of the pair's packed order, which the receiver
	// copies straight into its destination. It holds no pooled buffer, so
	// it owes no credit. state settles who may still read data: a chunk is
	// chunkLent until the receiver takes it to copy (or to discard it) or
	// the sender revokes it, and either way the lender's rendezvous is
	// released exactly once. The sender owns the message throughout and
	// pools it again after the rendezvous — except a revoked one, which a
	// late receiver may still inspect, and which the GC takes instead.
	lender *rendezvous
	off    int
	state  atomic.Int32
	// segs, when non-nil, makes a lent chunk a remote one (remotelend.go):
	// views of the window's runs in the sender's source, loanBytes in all,
	// lent to the connection as a wire.Loan instead of to a receiver.
	segs      [][]byte
	loanBytes int
	// placedBytes is how much of a received remote chunk's payload was
	// read straight into its destination (a posted receive): all of it,
	// and data holds none.
	placedBytes int
}

// Message marks, the byte that follows a transfer message's element count.
const (
	markData = iota
	markAck
	markReady
)

// Lent-chunk states.
const (
	chunkLent int32 = iota + 1
	chunkTaken
	chunkRevoked
)

// rendezvous counts a run's lent chunks still readable by a receiver and
// wakes the lending rank when the count reaches zero. A wake token left
// over from an earlier run only makes the lender check the count again.
type rendezvous struct {
	left atomic.Int64
	wake chan struct{}
	tick *time.Timer // the lender's poll, made on first use
}

// sleep waits until the rendezvous is woken or d has passed, and reports
// whether it was woken. A tick that fires as it is woken may end the next
// sleep early.
func (z *rendezvous) sleep(d time.Duration) bool {
	if z.tick == nil {
		z.tick = time.NewTimer(d)
	} else {
		z.tick.Reset(d)
	}
	select {
	case <-z.wake:
		z.tick.Stop()
		return true
	case <-z.tick.C:
		return false
	}
}

func (z *rendezvous) release() {
	if z.left.Add(-1) == 0 {
		select {
		case z.wake <- struct{}{}:
		default:
		}
	}
}

// take claims a lent chunk for reading; false means its sender revoked it
// and its data must not be read.
func (m *xferMsg) take() bool { return m.state.CompareAndSwap(chunkLent, chunkTaken) }

// maxFreeMsgs bounds the message free list; surplus puts go to the GC.
const maxFreeMsgs = 256

var (
	mMsgPoolHits   = obs.Default().Counter("redist.msg_pool_hits")
	mMsgPoolMisses = obs.Default().Counter("redist.msg_pool_misses")
)

// msgPool is a mutex-guarded free list (not sync.Pool, whose victim cache
// is dropped at GC and would make the zero-alloc guarantee flaky). The
// backing slice is pre-sized so steady-state put never appends beyond
// capacity.
var msgPool = struct {
	mu   sync.Mutex
	free []*xferMsg
}{free: make([]*xferMsg, 0, maxFreeMsgs)}

func getMsg() *xferMsg {
	msgPool.mu.Lock()
	if n := len(msgPool.free); n > 0 {
		m := msgPool.free[n-1]
		msgPool.free[n-1] = nil
		msgPool.free = msgPool.free[:n-1]
		msgPool.mu.Unlock()
		mMsgPoolHits.Inc()
		return m
	}
	msgPool.mu.Unlock()
	mMsgPoolMisses.Inc()
	return new(xferMsg)
}

// newMsg builds a pooled message carrying elems elements of type T, with
// the data buffer drawn from bufpool. The caller packs into Data (via
// elemsOf) before sending.
func newMsg[T Elem](epoch uint64, elems int) *xferMsg {
	m := getMsg()
	m.epoch = epoch
	m.kind = kindOf[T]()
	m.elems = elems
	m.data = bufpool.Get(elems * elemSize[T]())
	addInFlight(len(m.data))
	return m
}

// Packed-bytes accounting: every data buffer drawn for a transfer
// message counts toward the process-wide in-flight total from newMsg
// until recycle. The high-water mark is the peak transfer-payload memory
// the engine had resident at once, the quantity MaxBytesInFlight exists
// to bound (TestBudgetedPeakBytesBounded; bench/'s
// redist.peak_packed_bytes).
var (
	bytesInFlight  atomic.Int64
	bytesHighWater atomic.Int64
)

func init() {
	obs.Default().RegisterFunc("redist.packed_bytes_in_flight", bytesInFlight.Load)
	obs.Default().RegisterFunc("redist.packed_bytes_high_water", bytesHighWater.Load)
}

func addInFlight(n int) {
	if n == 0 {
		return
	}
	cur := bytesInFlight.Add(int64(n))
	for {
		hw := bytesHighWater.Load()
		if cur <= hw || bytesHighWater.CompareAndSwap(hw, cur) {
			return
		}
	}
}

// PackedBytesHighWater returns the peak packed transfer-payload bytes
// resident at once since the last reset (process-wide, across every
// concurrent transfer).
func PackedBytesHighWater() int64 { return bytesHighWater.Load() }

// ResetPackedBytesHighWater rebases the high-water mark to the bytes
// currently in flight, so a measurement phase sees only its own peak.
func ResetPackedBytesHighWater() { bytesHighWater.Store(bytesInFlight.Load()) }

// recycle returns a message and its buffer to their pools. A lent chunk's
// data is the sender's own memory and the message is the sender's too:
// recycle releases the sender's rendezvous — unless the sender revoked the
// chunk, which released it already — and touches the message no more.
func recycle(m *xferMsg) {
	if z := m.lender; z != nil {
		if m.state.Load() == chunkTaken || m.take() {
			z.release()
		}
		return
	}
	bytesInFlight.Add(-int64(len(m.data)))
	if m.frame != nil {
		bufpool.PutFrame(m.frame)
	} else {
		bufpool.Put(m.data)
	}
	*m = xferMsg{}
	putMsg(m)
}

// Release implements comm.Releaser: a message comm discards instead of
// delivering is recycled like a consumed one.
func (m *xferMsg) Release() { recycle(m) }

func putMsg(m *xferMsg) {
	msgPool.mu.Lock()
	if len(msgPool.free) < maxFreeMsgs {
		msgPool.free = append(msgPool.free, m)
	}
	msgPool.mu.Unlock()
}

// Lending instruments: chunks lent instead of packed, and their elements.
var (
	mZeroCopyHits = obs.Default().Counter("redist.zerocopy_hits")
	mElemsLent    = obs.Default().Counter("redist.elems_lent")
)

// recvs is how many pairwise messages this rank expects.
func (t *Transfer[T]) recvs() int {
	if t.dst < 0 {
		return 0
	}
	return t.s.InDegree(t.dst)
}

// sends is how many pairwise messages this rank sends.
func (t *Transfer[T]) sends() int {
	if t.src < 0 {
		return 0
	}
	return t.s.OutDegree(t.src)
}

// sendPair and recvPair are the plans of this rank's i'th outgoing and
// incoming pairwise messages; sendGroup is the group rank the i'th
// outgoing one goes to.
func (t *Transfer[T]) sendPair(i int) schedule.PairPlan { return t.s.OutgoingAt(t.src, i) }
func (t *Transfer[T]) recvPair(i int) schedule.PairPlan { return t.s.IncomingAt(t.dst, i) }
func (t *Transfer[T]) sendGroup(i int) int              { return t.lay.DstBase + t.sendPair(i).DstRank }

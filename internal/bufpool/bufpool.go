// Package bufpool provides size-classed reusable byte buffers for the hot
// transfer paths. A steady-state redistribution packs, sends, receives and
// unpacks the same buffer sizes over and over; recycling them through a
// pool removes every per-transfer allocation (guarded by the redist
// alloc tests) and keeps the garbage collector out of the message loop.
//
// Buffers are handed out in size classes: powers of two below 4 KiB, and
// from 4 KiB up a power of two plus headroom bytes. The headroom is room
// for the envelope a payload travels in — comm's head, the message head,
// the encoder's alignment padding and the session trailer — so a pooled
// 2^k-byte payload and the received frame that carries it fall in one
// class: a frame the receiver has unpacked and freed serves its next send,
// and a payload freed by an ack serves the next frame it receives.
// Backing arrays are 8-byte aligned, so a buffer can be reinterpreted as
// a slice of any supported element type (float64, complex128, ...)
// without violating alignment. Ownership is transferable: the common
// pattern is that a sender Gets and packs a buffer, the in-process
// runtime carries it to the receiver, and the receiver Puts it back after
// unpacking — the pool is safe for that cross-goroutine round trip.
// Across a connection the receive side mirrors this with frames: the
// transport hands each message up as a frame, and whoever ends up holding
// it (a decoded transfer message, a PRMI message) returns it with
// PutFrame. A frame is a GetFrame buffer of its own, or a view of a Slab:
// a class buffer a frame reader reads many frames into at once, handing
// each up in place. PutFrame tells the two apart by address, and a slab
// returns to its class once its reader has let it go and its last view
// is back.
//
// The implementation is a mutex-guarded free list rather than sync.Pool:
// Get and Put never allocate in steady state (sync.Pool's victim cache can
// drop entries at every GC, which would make the zero-alloc guarantees
// flaky), and the retained memory is bounded by maxPerClass buffers per
// size class.
package bufpool

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"mxn/internal/obs"
)

const (
	// minClassBits..maxClassBits bound the pooled size classes:
	// 64 B .. 16 MiB + headroom. Requests above the largest class are
	// allocated directly and never retained.
	minClassBits = 6
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1

	// Classes of 2^headroomBits bytes and up hold headroom bytes beyond
	// their power of two: room for a payload's envelope (comm head,
	// message head, alignment padding, session trailer), so that the
	// frame carrying a 2^k-byte payload fits the payload's own class.
	headroomBits = 12
	headroom     = 256

	// maxPerClass bounds retained buffers per class; surplus Puts are
	// dropped for the collector.
	maxPerClass = 64
)

// Pool-level instruments, registered in the process-default registry.
// hits/misses split Get traffic by whether a retained buffer was reused;
// oversize counts requests beyond the largest class (never pooled).
// frame_gets/frame_puts count the receive path's frames, which share the
// free lists but not the Get/Put counters (see GetFrame).
var (
	mGets      = obs.Default().Counter("bufpool.gets")
	mPuts      = obs.Default().Counter("bufpool.puts")
	mHits      = obs.Default().Counter("bufpool.hits")
	mMisses    = obs.Default().Counter("bufpool.misses")
	mOversize  = obs.Default().Counter("bufpool.oversize")
	mDropped   = obs.Default().Counter("bufpool.puts_dropped")
	mFrameGets = obs.Default().Counter("bufpool.frame_gets")
	mFramePuts = obs.Default().Counter("bufpool.frame_puts")
)

// The attribution gauges read the process-default pool: retained_bytes is
// what sits on its free lists, footprint_bytes every class buffer it has
// allocated and not dropped — retained plus what callers hold.
func init() {
	obs.Default().RegisterFunc("bufpool.retained_bytes", defaultPool.retainedBytes)
	obs.Default().RegisterFunc("bufpool.footprint_bytes", defaultPool.footprint.Load)
}

// Pool is a size-classed buffer pool. The zero value is ready to use; all
// methods are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	classes [numClasses][][]byte
	// slabs are the slabs out, sorted by base address, so that PutFrame
	// finds the one a view lies in; free recycles their records.
	slabs []*Slab
	free  *Slab
	// footprint is the bytes of class buffers this pool has allocated
	// and not dropped.
	footprint atomic.Int64
}

// defaultPool serves the package-level Get/Put used by the transfer
// engine; distinct Pools exist only for tests.
var defaultPool Pool

// classSize returns the byte size of class c's buffers.
func classSize(c int) int {
	k := minClassBits + c
	if k < headroomBits {
		return 1 << k
	}
	return 1<<k + headroom
}

// classFor returns the class index whose buffers hold at least n bytes,
// or -1 when n exceeds the largest class.
func classFor(n int) int {
	c := 0
	for classSize(c) < n {
		c++
		if c >= numClasses {
			return -1
		}
	}
	return c
}

// alignedBytes allocates an 8-byte-aligned byte slice of length n. The
// backing array is a []uint64, so reinterpreting the buffer as elements
// of size up to 8 (or complex128, which needs only 8-byte alignment) is
// always legal.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// Get returns a buffer with length exactly n. The contents are
// unspecified (callers overwrite fully); the capacity is the class size.
func (p *Pool) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	mGets.Inc()
	c := classFor(n)
	if c < 0 {
		mOversize.Inc()
		return alignedBytes(n)
	}
	if b := p.take(c); b != nil {
		mHits.Inc()
		return b[:n]
	}
	mMisses.Inc()
	return p.alloc(c)[:n]
}

// alloc allocates a new buffer of class c, counted in the footprint.
func (p *Pool) alloc(c int) []byte {
	p.footprint.Add(int64(classSize(c)))
	return alignedBytes(classSize(c))
}

// take pops a retained buffer of class c, nil when none is free.
func (p *Pool) take(c int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	stack := p.classes[c]
	if len(stack) == 0 {
		return nil
	}
	b := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	p.classes[c] = stack[:len(stack)-1]
	return b
}

// Put returns a buffer obtained from Get to the pool. A prefix of such a
// buffer is accepted (the capacity identifies the class). Buffers whose
// capacity is not an exact class size (oversize allocations, or foreign
// slices) are dropped; Put(nil) is a no-op.
func (p *Pool) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	mPuts.Inc()
	p.retain(b)
}

// GetFrame is Get for the receive path: the buffer a frame, or a copy of
// one, is received into and handed up through Recv. Frames come from the
// same free lists as Get's buffers but are counted apart — in
// FramesOutstanding, not Outstanding — so that Get/Put traffic and its
// counters keep meaning the buffers a sender draws, and a missed return
// on either side shows on its own counter. The receiver owns the frame and
// returns it (or a prefix of it) with PutFrame.
func (p *Pool) GetFrame(n int) []byte {
	if n == 0 {
		return nil
	}
	mFrameGets.Inc()
	c := classFor(n)
	if c < 0 {
		return alignedBytes(n)
	}
	if b := p.take(c); b != nil {
		return b[:n]
	}
	return p.alloc(c)[:n]
}

// TryGetFrame is GetFrame when it needs no new memory: a retained buffer
// of n's class as a length-n frame, or nil when none is free (or n is
// zero or beyond the largest class).
func (p *Pool) TryGetFrame(n int) []byte {
	c := classFor(n)
	if n == 0 || c < 0 {
		return nil
	}
	b := p.take(c)
	if b == nil {
		return nil
	}
	mFrameGets.Inc()
	return b[:n]
}

// PutFrame returns a frame obtained from GetFrame or TryGetFrame, or a
// view from Slab.View, or a prefix of either; PutFrame(nil) is a no-op.
func (p *Pool) PutFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	mFramePuts.Inc()
	p.retain(b)
}

// retain takes b back: a view is dropped from its slab, and a buffer of
// its own is pushed onto its class's free list, or dropped when its
// capacity is not a class size or the list is full.
func (p *Pool) retain(b []byte) {
	p.mu.Lock()
	if s := p.slabAt(unsafe.SliceData(b)); s != nil {
		if s.refs.Add(-1) == 0 {
			p.retireLocked(s)
		}
		p.mu.Unlock()
		return
	}
	kept := p.pushLocked(b)
	p.mu.Unlock()
	if !kept {
		mDropped.Inc()
	}
}

// pushLocked pushes b onto its class's free list and reports whether it
// did; a buffer it drops from a full list leaves the footprint.
func (p *Pool) pushLocked(b []byte) bool {
	c := classFor(cap(b))
	if c < 0 || classSize(c) != cap(b) {
		return false
	}
	if len(p.classes[c]) < maxPerClass {
		p.classes[c] = append(p.classes[c], b[:cap(b)])
		return true
	}
	p.footprint.Add(-int64(cap(b)))
	return false
}

// A Slab is a class buffer that a frame reader reads many frames into,
// handing each up in place as a view (View). The reader holds one
// reference and every view one more; the slab goes back to its class
// when the last is dropped — the reader's with Release, a view's with
// PutFrame, from any goroutine.
type Slab struct {
	pool   *Pool
	buf    []byte
	base   uintptr
	refs   atomic.Int64
	pinned *atomic.Int32 // counts the slab while its reader has left it with views out
	next   *Slab         // the record free list
}

// Slabs taken and retired, for SlabsOutstanding.
var slabGets, slabPuts atomic.Int64

// GetSlab returns a slab whose buffer is a class buffer of at least n
// bytes (n within the largest class), held by the caller.
func (p *Pool) GetSlab(n int) *Slab {
	c := classFor(n)
	if n == 0 || c < 0 {
		panic("bufpool: slab size out of range")
	}
	b := p.take(c)
	if b == nil {
		b = p.alloc(c)
	}
	p.mu.Lock()
	s := p.free
	if s != nil {
		p.free = s.next
	} else {
		s = new(Slab)
	}
	*s = Slab{pool: p, buf: b[:cap(b)], base: uintptr(unsafe.Pointer(unsafe.SliceData(b)))}
	s.refs.Store(1)
	i, _ := p.slabIndex(s.base)
	p.slabs = slices.Insert(p.slabs, i, s)
	p.mu.Unlock()
	slabGets.Add(1)
	return s
}

// Bytes returns the slab's whole buffer.
func (s *Slab) Bytes() []byte { return s.buf }

// View hands up s's bytes [off, off+n) as a frame, capacity n so that no
// append reaches the bytes after it; its holder returns it with PutFrame.
// Only the slab's holder calls View.
func (s *Slab) View(off, n int) []byte {
	s.refs.Add(1)
	mFrameGets.Inc()
	return s.buf[off : off+n : off+n]
}

// Viewed reports whether a view of s is still out. Only its holder asks:
// views only come back meanwhile, so false stays false until its next
// View, and until then the holder may write any byte of s.
func (s *Slab) Viewed() bool { return s.refs.Load() > 1 }

// Release ends the holder's use of s. With views still out, s counts
// itself in *pinned (when pinned is not nil) until the last comes back.
func (s *Slab) Release(pinned *atomic.Int32) {
	if pinned != nil && s.Viewed() {
		pinned.Add(1)
		s.pinned = pinned
	}
	if s.refs.Add(-1) == 0 {
		p := s.pool
		p.mu.Lock()
		p.retireLocked(s)
		p.mu.Unlock()
	}
}

// retireLocked returns a slab nothing references to its class and its
// record to the free list.
func (p *Pool) retireLocked(s *Slab) {
	if s.pinned != nil {
		s.pinned.Add(-1)
	}
	i, _ := p.slabIndex(s.base)
	p.slabs = slices.Delete(p.slabs, i, i+1)
	if !p.pushLocked(s.buf) {
		mDropped.Inc()
	}
	*s = Slab{next: p.free}
	p.free = s
	slabPuts.Add(1)
}

// slabIndex returns where a slab based at a is, or would be, in p.slabs.
func (p *Pool) slabIndex(a uintptr) (int, bool) {
	return slices.BinarySearchFunc(p.slabs, a, func(t *Slab, a uintptr) int { return cmp.Compare(t.base, a) })
}

// slabAt returns the slab out whose buffer holds the byte at ptr, or nil.
func (p *Pool) slabAt(ptr *byte) *Slab {
	if len(p.slabs) == 0 {
		return nil
	}
	a := uintptr(unsafe.Pointer(ptr))
	i, found := p.slabIndex(a)
	if !found {
		if i == 0 {
			return nil
		}
		i--
	}
	if s := p.slabs[i]; a < s.base+uintptr(len(s.buf)) {
		return s
	}
	return nil
}

// retainedBytes returns the bytes on p's free lists.
func (p *Pool) retainedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for c, stack := range p.classes {
		n += int64(len(stack) * classSize(c))
	}
	return n
}

// Outstanding returns the number of Get calls not yet matched by a Put.
// The counters are process-wide (shared by every Pool), zero-length Gets
// and nil Puts are not counted on either side, and oversize buffers
// count symmetrically even though they are never retained — so the value
// is exactly the number of live buffers callers still owe the pool. The
// borrow-path leak tests assert it returns to a baseline after every
// ownership-transfer scenario.
func Outstanding() int64 {
	return int64(mGets.Value()) - int64(mPuts.Value())
}

// FramesOutstanding is Outstanding for frames: GetFrame and TryGetFrame
// calls not yet matched by a PutFrame, the received messages their
// receivers still hold.
func FramesOutstanding() int64 {
	return int64(mFrameGets.Value()) - int64(mFramePuts.Value())
}

// SlabsOutstanding returns the slabs taken (GetSlab) and not yet back in
// their class: held by a reader, or left by one with views still out.
func SlabsOutstanding() int64 { return slabGets.Load() - slabPuts.Load() }

// ViewSlab returns the whole buffer of the slab out that b is a view of,
// or nil when b is a frame of its own (or nil).
func ViewSlab(b []byte) []byte {
	if cap(b) == 0 {
		return nil
	}
	p := &defaultPool
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.slabAt(unsafe.SliceData(b)); s != nil {
		return s.buf
	}
	return nil
}

// Get returns a length-n buffer from the process-default pool.
func Get(n int) []byte { return defaultPool.Get(n) }

// Put returns a buffer to the process-default pool.
func Put(b []byte) { defaultPool.Put(b) }

// GetFrame returns a length-n frame from the process-default pool.
func GetFrame(n int) []byte { return defaultPool.GetFrame(n) }

// TryGetFrame returns a free length-n frame from the process-default pool,
// or nil.
func TryGetFrame(n int) []byte { return defaultPool.TryGetFrame(n) }

// PutFrame returns a frame to the process-default pool.
func PutFrame(b []byte) { defaultPool.PutFrame(b) }

// GetSlab returns a slab of at least n bytes from the process-default
// pool.
func GetSlab(n int) *Slab { return defaultPool.GetSlab(n) }

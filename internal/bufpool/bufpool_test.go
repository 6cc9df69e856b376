package bufpool

import (
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// Below 4 KiB the classes are powers of two; from 4 KiB up each holds
// headroom bytes more, so the largest pooled request is 16 MiB + 256.
func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{2048, 5}, {2049, 6}, {4096, 6}, {4096 + headroom, 6}, {4096 + headroom + 1, 7},
		{1 << 21, 15}, {1<<21 + 80, 15}, {1<<21 + headroom, 15}, {1<<21 + headroom + 1, 16},
		{1 << 24, numClasses - 1}, {1<<24 + 1, numClasses - 1},
		{1<<24 + headroom, numClasses - 1}, {1<<24 + headroom + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	var p Pool
	b := p.Get(100)
	if len(b) != 100 {
		t.Fatalf("len = %d, want 100", len(b))
	}
	if cap(b) != 128 {
		t.Fatalf("cap = %d, want class size 128", cap(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	p.Put(b)
	// The next request in the same class reuses the retained buffer.
	b2 := p.Get(70)
	if unsafe.SliceData(b2) != unsafe.SliceData(b) {
		t.Error("buffer not reused after Put")
	}
}

func TestAlignment(t *testing.T) {
	var p Pool
	for _, n := range []int{1, 7, 64, 100, 4096, 1<<24 + headroom + 3} {
		b := p.Get(n)
		if addr := uintptr(unsafe.Pointer(unsafe.SliceData(b))); addr%8 != 0 {
			t.Errorf("Get(%d): backing array at %#x not 8-byte aligned", n, addr)
		}
		p.Put(b)
	}
}

func TestOversizeNotRetained(t *testing.T) {
	var p Pool
	b := p.Get(1<<24 + headroom + 1)
	if len(b) != 1<<24+headroom+1 {
		t.Fatalf("oversize len = %d", len(b))
	}
	p.Put(b) // dropped, must not panic or corrupt a class
	b2 := p.Get(64)
	if cap(b2) != 64 {
		t.Fatalf("class 0 corrupted: cap = %d", cap(b2))
	}
}

func TestZeroLength(t *testing.T) {
	var p Pool
	if b := p.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) returned %d bytes", len(b))
	}
	p.Put(nil)
}

func TestBoundedRetention(t *testing.T) {
	var p Pool
	bufs := make([][]byte, maxPerClass+10)
	for i := range bufs {
		bufs[i] = alignedBytes(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if got := len(p.classes[0]); got != maxPerClass {
		t.Fatalf("retained %d buffers, want cap %d", got, maxPerClass)
	}
}

// Steady-state Get/Put cycles must not allocate: this is the foundation of
// the redist engine's zero-alloc transfer guarantee.
func TestSteadyStateZeroAlloc(t *testing.T) {
	var p Pool
	p.Put(p.Get(1024)) // warm the class
	allocs := testing.AllocsPerRun(200, func() {
		b := p.Get(1000)
		p.Put(b)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates: %v allocs/op", allocs)
	}
}

func TestConcurrentUse(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed byte) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(64 + i%2000)
				for j := range b {
					b[j] = seed
				}
				for j := range b {
					if b[j] != seed {
						t.Errorf("buffer shared while owned")
						return
					}
				}
				p.Put(b)
			}
		}(byte(g))
	}
	wg.Wait()
}

// A payload and the frame that carries it share a class: a frame of a
// 2^k-byte payload plus its envelope reuses the payload's buffer.
func TestPayloadAndFrameShareClass(t *testing.T) {
	var p Pool
	for _, k := range []int{12, 16, 21} {
		b := p.Get(1 << k)
		if want := 1<<k + headroom; cap(b) != want {
			t.Fatalf("Get(1<<%d): cap = %d, want %d", k, cap(b), want)
		}
		p.Put(b)
		f := p.GetFrame(1<<k + 80)
		if unsafe.SliceData(f) != unsafe.SliceData(b) {
			t.Errorf("k=%d: the frame of a freed payload's envelope did not reuse its buffer", k)
		}
		p.PutFrame(f)
	}
}

// The attribution gauges: footprint counts every class buffer allocated
// and not dropped, retained what sits on the free lists.
func TestFootprintAndRetained(t *testing.T) {
	var p Pool
	a, b := p.Get(100), p.GetFrame(5000)
	size := int64(128 + 8192 + headroom)
	if got := p.footprint.Load(); got != size {
		t.Fatalf("footprint with two buffers out = %d, want %d", got, size)
	}
	if got := p.retainedBytes(); got != 0 {
		t.Fatalf("retained with nothing returned = %d, want 0", got)
	}
	p.Put(a)
	p.PutFrame(b)
	if got := p.retainedBytes(); got != size {
		t.Fatalf("retained after both returned = %d, want %d", got, size)
	}
	p.Put(p.Get(70)) // a hit allocates nothing
	if got := p.footprint.Load(); got != size {
		t.Fatalf("footprint after a hit = %d, want %d", got, size)
	}
	// A drop for a full list leaves the footprint.
	bufs := make([][]byte, maxPerClass+1)
	for i := range bufs {
		bufs[i] = p.Get(64)
	}
	for _, b := range bufs {
		p.Put(b)
	}
	if got, want := p.footprint.Load(), size+maxPerClass*64; got != want {
		t.Fatalf("footprint after a dropped Put = %d, want %d", got, want)
	}
}

// TestSlabReturnsWithLastReference: a slab's views are frames of capacity
// their length that PutFrame finds by address, prefixes included; the slab
// stays out while its holder or any view keeps it, counts itself pinned
// while only views do, and returns to its class with the last of them —
// whichever goroutine drops it.
func TestSlabReturnsWithLastReference(t *testing.T) {
	var p Pool
	s := p.GetSlab(1000)
	buf := s.Bytes()
	if cap(buf) != 1024 {
		t.Fatalf("slab of 1000 bytes has capacity %d, want its class's 1024", cap(buf))
	}
	frames := FramesOutstanding()
	v1, v2 := s.View(0, 16), s.View(16, 8)
	if cap(v1) != len(v1) || cap(v2) != len(v2) || !s.Viewed() {
		t.Fatal("views reach past their bytes, or the slab does not know it is viewed")
	}
	var pinned atomic.Int32
	s.Release(&pinned)
	if pinned.Load() != 1 || p.slabAt(unsafe.SliceData(buf)) == nil {
		t.Fatal("a slab left with views out is not pinned and out")
	}
	p.PutFrame(v1)
	p.PutFrame(v2[:3])
	if pinned.Load() != 0 || p.slabAt(unsafe.SliceData(buf)) != nil {
		t.Fatal("the slab is still out after its last view came back")
	}
	if d := FramesOutstanding() - frames; d != 0 {
		t.Fatalf("%d views outstanding", d)
	}
	if b := p.take(classFor(1024)); unsafe.SliceData(b) != unsafe.SliceData(buf) {
		t.Fatal("the slab did not return to its class")
	}

	// Views put back from many goroutines while the holder lets go.
	s = p.GetSlab(4096)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		v := s.View(64*i, 64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.PutFrame(v)
		}()
	}
	s.Release(&pinned)
	wg.Wait()
	if pinned.Load() != 0 || len(p.slabs) != 0 {
		t.Fatalf("pinned %d, %d slabs out after every reference was dropped", pinned.Load(), len(p.slabs))
	}
}

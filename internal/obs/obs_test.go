package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x.count"); again != c {
		t.Fatalf("lookup did not return the same counter")
	}
	g := r.Gauge("x.gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var r *Registry
	c.Inc()
	c.Add(10)
	g.Set(3)
	g.Add(1)
	h.Observe(9)
	h.ObserveSince(time.Now())
	tr.Record(Event{Kind: EvPack})
	tr.Span(EvSend, "", 0, 0, 0, time.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Total() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Counter("a") != nil || r.Gauge("b") != nil || r.Histogram("c") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.RegisterFunc("d", func() int64 { return 1 })
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 1010 {
		t.Fatalf("sum = %d, want 1010", s.Sum)
	}
	// 0 and -5 land in [0,1); 1 in [1,2); 2,3 in [2,4); 4 in [4,8);
	// 1000 in [512,1024).
	wantBuckets := map[uint64]uint64{0: 2, 1: 1, 2: 2, 4: 1, 512: 1}
	for _, b := range s.Buckets {
		if wantBuckets[b.Lo] != b.N {
			t.Fatalf("bucket [%d,%d) has %d samples, want %d", b.Lo, b.Hi, b.N, wantBuckets[b.Lo])
		}
		delete(wantBuckets, b.Lo)
	}
	if len(wantBuckets) != 0 {
		t.Fatalf("missing buckets: %v", wantBuckets)
	}
	if q := s.Quantile(0.99); q != 1024 {
		t.Fatalf("p99 = %d, want 1024", q)
	}
	if m := s.Mean(); m < 144 || m > 145 {
		t.Fatalf("mean = %v, want ~144.3", m)
	}
}

// TestHotPathZeroAlloc is the allocation guard the acceptance criteria
// call for: enabling metrics must add zero allocations on hot paths.
func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot.counter")
	g := r.Gauge("hot.gauge")
	h := r.Histogram("hot.hist")
	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(64)
		g.Add(1)
		g.Set(12)
		h.Observe(4096)
	})
	if allocs != 0 {
		t.Fatalf("metric hot path allocates %v times per op, want 0", allocs)
	}

	// Disabled tracing must be free too: nil lookup plus nil-safe methods.
	DisableTracing()
	allocs = testing.AllocsPerRun(200, func() {
		Trace().Record(Event{Kind: EvPack, Elems: 10})
	})
	if allocs != 0 {
		t.Fatalf("disabled trace path allocates %v times per op, want 0", allocs)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(j))
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestSnapshotAndWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.sent").Add(3)
	r.Gauge("a.depth").Set(-2)
	r.Histogram("a.lat_ns").Observe(100)
	r.RegisterFunc("a.cache_hits", func() int64 { return 42 })
	s := r.Snapshot()
	if s.Counters["a.sent"] != 3 || s.Gauges["a.depth"] != -2 || s.Gauges["a.cache_hits"] != 42 {
		t.Fatalf("bad snapshot: %+v", s)
	}
	if s.Histograms["a.lat_ns"].Count != 1 {
		t.Fatalf("histogram missing from snapshot: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must be JSON-encodable: %v", err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a.sent 3", "a.depth -2", "a.cache_hits 42", "a.lat_ns{count} 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestTracerRingBuffer(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 7; i++ {
		tr.Record(Event{Kind: EvSend, Elems: int64(i)})
	}
	if tr.Total() != 7 {
		t.Fatalf("total = %d, want 7", tr.Total())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(3 + i); ev.Elems != want {
			t.Fatalf("event %d has elems %d, want %d (oldest-first order)", i, ev.Elems, want)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "send") {
		t.Fatalf("trace text missing kind: %s", buf.String())
	}
}

func TestTracerSpan(t *testing.T) {
	tr := NewTracer(8)
	start := time.Now().Add(-time.Millisecond)
	tr.Span(EvUnpack, "c1", 2, 3, 99, start)
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Kind != EvUnpack || ev.Conn != "c1" || ev.Rank != 2 || ev.Peer != 3 || ev.Elems != 99 {
		t.Fatalf("bad event: %+v", ev)
	}
	if ev.Dur < int64(time.Millisecond) {
		t.Fatalf("span duration %v too short", time.Duration(ev.Dur))
	}
}

func TestDefaultTracerEnableDisable(t *testing.T) {
	if Trace() != nil {
		DisableTracing()
	}
	tr := EnableTracing(16)
	if Trace() != tr {
		t.Fatal("EnableTracing did not install the tracer")
	}
	Trace().Record(Event{Kind: EvRedial})
	if tr.Total() != 1 {
		t.Fatal("record through Trace() did not land")
	}
	DisableTracing()
	if Trace() != nil {
		t.Fatal("DisableTracing did not clear the tracer")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvScheduleBuild, EvPack, EvSend, EvRecv, EvUnpack, EvRedial}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub.count").Inc()
	// Must not panic on double publish.
	r.PublishExpvar("obs_test_metrics")
	r.PublishExpvar("obs_test_metrics")
}

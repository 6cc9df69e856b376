// Package obs is the repository's observability core: allocation-free
// metrics (counters, gauges, log₂-bucketed histograms) and a lightweight
// transfer-trace recorder, with no dependencies beyond the standard
// library.
//
// The paper's performance story — schedule reuse, non-serialized pairwise
// transfers, 2N-vs-N² converters — is qualitative; this package makes it
// measurable. Every layer of the stack (transport, wire, comm, redist,
// prmi, core, schedule) registers its instruments in the process-default
// Registry at package init, so a snapshot of Default() is a cross-section
// of the whole middleware. CUMULVS's steering/viewer instrumentation and
// MCT's router accounting played the same role in those systems.
//
// Design rules, enforced by tests:
//
//   - Hot-path operations (Counter.Add, Gauge.Set, Histogram.Observe) are
//     single atomic updates and never allocate.
//   - Every instrument method is nil-safe: a nil *Counter (etc.) is a
//     no-op, so optional instrumentation costs nothing when absent.
//   - Instrument lookup (Registry.Counter and friends) takes a lock and
//     may allocate; callers cache the returned pointers in package vars.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are safe on a nil receiver.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous signed value. The zero value is ready to use;
// all methods are safe on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is bits.Len64(v)+1 worth of log₂ buckets: bucket 0 holds
// v == 0, bucket i holds values with bit length i, i.e. [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a log₂-bucketed distribution of non-negative int64 samples
// (latencies in nanoseconds, sizes in elements or bytes). Observation is a
// fixed number of atomic adds and never allocates; buckets are exponential
// so one histogram spans nanoseconds to minutes. All methods are safe on a
// nil receiver. Negative samples clamp to zero.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(v))
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveSince records the elapsed time since start, in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Bucket is one populated histogram bucket: N samples in [Lo, Hi).
type Bucket struct {
	Lo, Hi uint64
	N      uint64
}

// HistSnapshot is a consistent-enough copy of a histogram (buckets are read
// individually; a snapshot taken under concurrent writes may be off by the
// in-flight samples, which is fine for monitoring).
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average sample, or 0 with no samples.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1): the upper
// bound of the bucket containing that rank. Log₂ buckets make this a
// factor-of-two estimate, which is what regression-spotting needs.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.N
		if seen > rank {
			return b.Hi
		}
	}
	return 0
}

// Snapshot copies the histogram's current state, keeping only populated
// buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		var lo, hi uint64
		if i > 0 {
			lo = 1 << (i - 1)
			hi = 1 << i
		} else {
			lo, hi = 0, 1
		}
		s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, N: n})
	}
	return s
}

// Registry is a named collection of instruments. Lookup is get-or-create
// and safe for concurrent use; the intended pattern is to resolve
// instruments once at package init and cache the pointers. All methods are
// safe on a nil receiver (returning nil instruments, whose operations are
// no-ops), so a subsystem can accept an optional registry and instrument
// unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		funcs:    map[string]func() int64{},
	}
}

// defaultRegistry is the process-wide registry every internal package
// registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterFunc registers a gauge computed on demand at snapshot time —
// the bridge for subsystems that already keep their own counts (e.g.
// schedule.Cache hit/miss) and for derived values like queue lengths.
// Re-registering a name replaces the previous function.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// Snapshot is a point-in-time copy of a registry's instruments, suitable
// for JSON encoding (the payload of mxnbench's -obs report).
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for k, v := range r.funcs {
		funcs[k] = v
	}
	r.mu.Unlock()

	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range funcs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// WriteText renders the registry in a sorted, line-oriented text format:
//
//	name value
//	name{count} N  name{sum} S  name{p50} Q  name{p99} Q
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		var v any
		if c, ok := s.Counters[k]; ok {
			v = c
		} else {
			v = s.Gauges[k]
		}
		if _, err := fmt.Fprintf(w, "%s %v\n", k, v); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		hnames = append(hnames, k)
	}
	sort.Strings(hnames)
	for _, k := range hnames {
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "%s{count} %d  %s{sum} %d  %s{mean} %.1f  %s{p50} %d  %s{p99} %d\n",
			k, h.Count, k, h.Sum, k, h.Mean(), k, h.Quantile(0.50), k, h.Quantile(0.99)); err != nil {
			return err
		}
	}
	return nil
}

// expvarPublished guards against double-publishing (expvar panics on
// duplicate names).
var expvarPublished sync.Map

// PublishExpvar exposes the registry as a single expvar variable under
// name, rendering a fresh Snapshot as JSON on every read of /debug/vars.
// Publishing the same name twice is a no-op.
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	if _, loaded := expvarPublished.LoadOrStore(name, true); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// MarshalJSON lets a Registry itself be embedded in JSON payloads.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

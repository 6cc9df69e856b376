package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

// span is one timed call from the benchmark into a layer. Times are
// nanoseconds since the tracer started. Spans of one step share its Step
// id; Parent is the index of the span that caused this one, -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Step   int    `json:"step"`
	Rank   int    `json:"rank"`
}

// tracer records spans in memory; they are written out when the pass ends.
// A nil *tracer records nothing, which is how the untraced pass runs the
// same workload code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// Peaks of the two gauges that say how much memory a step pins,
	// sampled by the ranks between a step's transfers and at its end.
	peakOutstanding, peakReplay int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var replayDepth = obs.Default().Gauge("session.replay_depth")

// sample reads the pooled-buffer and session replay gauges at a layer
// boundary.
func (t *tracer) sample() {
	if t == nil {
		return
	}
	o, r := bufpool.Outstanding(), replayDepth.Value()
	t.mu.Lock()
	if o > t.peakOutstanding {
		t.peakOutstanding = o
	}
	if r > t.peakReplay {
		t.peakReplay = r
	}
	t.mu.Unlock()
}

// begin opens a span and returns its index for end. Rank-level spans are
// opened with parent -1 and attached to their step span by linkSteps,
// because a rank may enter step i before rank 0 has opened that step.
func (t *tracer) begin(name string, step, rank int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: -1, Step: step, Rank: rank})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// linkSteps makes every non-step span with a step id a child of that
// step's "step" span.
func linkSteps(spans []span) {
	stepSpan := map[int]int{}
	for i, s := range spans {
		if s.Name == "step" {
			stepSpan[s.Step] = i
		}
	}
	for i := range spans {
		if spans[i].Name == "step" || spans[i].Step < 0 {
			continue
		}
		if p, ok := stepSpan[spans[i].Step]; ok {
			spans[i].Parent = p
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its own
// interval that its children cover. Children run on several ranks at once
// and may start before or end after the parent, so the covered part is the
// union of the child intervals clipped to the parent's.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (p.End - p.Start) - covered
	}
	return self
}

// traceFile is what a traced pass leaves in the out directory.
type traceFile struct {
	Host   hostRecord       `json:"host"`
	SelfNS map[string]int64 `json:"self_ns_by_name"`
	Spans  []span           `json:"spans"`
}

func writeTrace(dir, workload string, host hostRecord, spans []span) error {
	self := selfTimes(spans)
	byName := map[string]int64{}
	for i, s := range spans {
		byName[s.Name] += self[i]
	}
	data, err := json.Marshal(traceFile{Host: host, SelfNS: byName, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), data, 0o644)
}

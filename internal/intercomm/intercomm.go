// Package intercomm reimplements the InterComm coupling framework the
// paper surveys in Section 4.4: efficient redistribution between parallel
// programs with complex array distributions, plus — its distinguishing
// feature — the separation of *what* data moves from *when* it moves.
//
// Programs do not talk to each other directly. Each program only
// expresses potential data transfers through Export and Import calls
// tagged with timestamps; the actual transfers happen according to
// coordination rules held by a third party (the Coordinator), which
// matches exports to imports by timestamp criteria. This frees each
// component developer from knowing the communication patterns of its
// potential partners, makes it easy to swap components, and lets the
// runtime hide transfer cost behind other program activity (exports never
// block on importers).
//
// Distributions are DAD templates; like InterComm, block distributions
// have small replicable descriptors while explicit (irregular)
// distributions carry per-patch descriptors — DescriptorFootprint reports
// the difference, and the redistribution schedules come from the shared
// schedule machinery.
package intercomm

import (
	"fmt"
	"sync"

	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// MatchKind selects how an import timestamp matches export timestamps —
// the coordination-rule matching criteria.
type MatchKind int

// Matching criteria.
const (
	// ExactTime: import at time t uses the export stamped exactly t.
	ExactTime MatchKind = iota
	// LowerBound: import at time t uses the newest export stamped ≤ t.
	LowerBound
	// Regular: import at time t uses the export stamped
	// floor(t/Interval)*Interval — periodic coupling at a fixed stride.
	Regular
)

// String names the criterion.
func (k MatchKind) String() string {
	switch k {
	case ExactTime:
		return "exact"
	case LowerBound:
		return "lower-bound"
	case Regular:
		return "regular"
	}
	return fmt.Sprintf("MatchKind(%d)", int(k))
}

// Rule is one coordination-specification entry: when the destination
// program imports DstArray, satisfy it from the source program's SrcArray
// according to the matching criterion.
type Rule struct {
	SrcProgram, SrcArray string
	DstProgram, DstArray string
	Match                MatchKind
	Interval             int // Regular only
}

// arrayKey addresses a declared array.
type arrayKey struct {
	program, array string
}

// exportSet holds the retained exports of one array: per timestamp, the
// per-rank local buffers.
type exportSet struct {
	tpl    *dad.Template
	byTime map[int][][]float64
	times  []int // complete timestamps, ascending
	// in-progress assembly per timestamp
	partial map[int]*partialExport
}

type partialExport struct {
	locals [][]float64
	filled int
}

// Coordinator is the third party that owns the coordination
// specification and mediates every transfer. Programs are registered with
// their decompositions; rules are added independently of either program —
// which is what makes components replaceable without code changes.
type Coordinator struct {
	mu     sync.Mutex
	cond   *sync.Cond
	arrays map[arrayKey]*exportSet
	rules  []Rule
	scheds *schedule.Cache
	// Retention bounds how many complete exports are kept per array;
	// 0 keeps all.
	Retention int
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	c := &Coordinator{
		arrays: map[arrayKey]*exportSet{},
		scheds: schedule.NewCache(),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// AddProgram registers a program name and returns its handle.
func (c *Coordinator) AddProgram(name string) *Program {
	return &Program{name: name, coord: c}
}

// AddRule installs one coordination rule. Both arrays must already be
// declared so the rule can be validated against conforming templates.
func (c *Coordinator) AddRule(r Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	src, ok := c.arrays[arrayKey{r.SrcProgram, r.SrcArray}]
	if !ok {
		return fmt.Errorf("intercomm: rule names undeclared source %s.%s", r.SrcProgram, r.SrcArray)
	}
	dst, ok := c.arrays[arrayKey{r.DstProgram, r.DstArray}]
	if !ok {
		return fmt.Errorf("intercomm: rule names undeclared destination %s.%s", r.DstProgram, r.DstArray)
	}
	if !src.tpl.Conforms(dst.tpl) {
		return fmt.Errorf("intercomm: rule couples non-conforming arrays %s.%s and %s.%s",
			r.SrcProgram, r.SrcArray, r.DstProgram, r.DstArray)
	}
	if r.Match == Regular && r.Interval <= 0 {
		return fmt.Errorf("intercomm: regular rule needs a positive interval")
	}
	for _, prev := range c.rules {
		if prev.DstProgram == r.DstProgram && prev.DstArray == r.DstArray {
			return fmt.Errorf("intercomm: destination %s.%s already has a rule", r.DstProgram, r.DstArray)
		}
	}
	c.rules = append(c.rules, r)
	return nil
}

// ruleFor finds the rule feeding a destination array.
func (c *Coordinator) ruleFor(program, array string) (Rule, bool) {
	for _, r := range c.rules {
		if r.DstProgram == program && r.DstArray == array {
			return r, true
		}
	}
	return Rule{}, false
}

// matchTime applies a rule's criterion to the available export times.
// Returns the chosen timestamp and whether one is available yet.
func matchTime(r Rule, times []int, want int) (int, bool) {
	switch r.Match {
	case ExactTime:
		for _, t := range times {
			if t == want {
				return t, true
			}
		}
		return 0, false
	case LowerBound:
		best, found := 0, false
		for _, t := range times {
			if t <= want && (!found || t > best) {
				best, found = t, true
			}
		}
		return best, found
	case Regular:
		target := (want / r.Interval) * r.Interval
		for _, t := range times {
			if t == target {
				return t, true
			}
		}
		return 0, false
	}
	return 0, false
}

// Program is one coupled program's handle on the coordinator.
type Program struct {
	name  string
	coord *Coordinator
}

// Name returns the program name.
func (p *Program) Name() string { return p.name }

// DeclareArray registers a distributed array and its decomposition.
func (p *Program) DeclareArray(array string, tpl *dad.Template) error {
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	key := arrayKey{p.name, array}
	if _, dup := c.arrays[key]; dup {
		return fmt.Errorf("intercomm: array %s.%s already declared", p.name, array)
	}
	c.arrays[key] = &exportSet{
		tpl:     tpl,
		byTime:  map[int][][]float64{},
		partial: map[int]*partialExport{},
	}
	return nil
}

// Export publishes rank's fragment of an array at a timestamp. The call
// copies the data and returns immediately: whether and when the data
// moves is the coordinator's decision, so exporters never block on
// importers. Once every rank of the decomposition has exported, the
// timestamp becomes visible to imports.
func (p *Program) Export(array string, time, rank int, local []float64) error {
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.arrays[arrayKey{p.name, array}]
	if !ok {
		return fmt.Errorf("intercomm: export of undeclared array %s.%s", p.name, array)
	}
	if rank < 0 || rank >= set.tpl.NumProcs() {
		return fmt.Errorf("intercomm: export rank %d outside decomposition of %d", rank, set.tpl.NumProcs())
	}
	if want := set.tpl.LocalCount(rank); len(local) != want {
		return fmt.Errorf("intercomm: export fragment has %d elements, template says %d", len(local), want)
	}
	if _, done := set.byTime[time]; done {
		return fmt.Errorf("intercomm: %s.%s already exported at time %d", p.name, array, time)
	}
	pe := set.partial[time]
	if pe == nil {
		pe = &partialExport{locals: make([][]float64, set.tpl.NumProcs())}
		set.partial[time] = pe
	}
	if pe.locals[rank] != nil {
		return fmt.Errorf("intercomm: rank %d exported %s.%s at time %d twice", rank, p.name, array, time)
	}
	cp := make([]float64, len(local))
	copy(cp, local)
	pe.locals[rank] = cp
	pe.filled++
	if pe.filled == set.tpl.NumProcs() {
		delete(set.partial, time)
		set.byTime[time] = pe.locals
		set.times = insertSorted(set.times, time)
		if c.Retention > 0 {
			for len(set.times) > c.Retention {
				oldest := set.times[0]
				set.times = set.times[1:]
				delete(set.byTime, oldest)
			}
		}
		c.cond.Broadcast()
	}
	return nil
}

// Import fills rank's fragment of a destination array for the given
// timestamp, blocking until the coordination rule for this array can be
// satisfied by a complete export. The returned timestamp is the source
// export actually used (it differs from the request under LowerBound and
// Regular matching).
func (p *Program) Import(array string, time, rank int, buf []float64) (int, error) {
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	dstSet, ok := c.arrays[arrayKey{p.name, array}]
	if !ok {
		return 0, fmt.Errorf("intercomm: import of undeclared array %s.%s", p.name, array)
	}
	rule, ok := c.ruleFor(p.name, array)
	if !ok {
		return 0, fmt.Errorf("intercomm: no coordination rule feeds %s.%s", p.name, array)
	}
	srcSet := c.arrays[arrayKey{rule.SrcProgram, rule.SrcArray}]
	if want := dstSet.tpl.LocalCount(rank); len(buf) != want {
		return 0, fmt.Errorf("intercomm: import buffer has %d elements, template says %d", len(buf), want)
	}
	var srcTime int
	for {
		t, found := matchTime(rule, srcSet.times, time)
		if found {
			srcTime = t
			break
		}
		c.cond.Wait()
	}
	s, err := c.scheds.Get(srcSet.tpl, dstSet.tpl)
	if err != nil {
		return 0, err
	}
	locals := srcSet.byTime[srcTime]
	// Export copied its input, so a source never overlaps buf.
	for _, plan := range s.IncomingFor(rank) {
		schedule.CopySliceRange(plan, locals[plan.SrcRank], buf, 0, plan.Elems)
	}
	return srcTime, nil
}

// Retire discards complete exports of an array older than the timestamp,
// bounding retention explicitly.
func (p *Program) Retire(array string, olderThan int) error {
	c := p.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.arrays[arrayKey{p.name, array}]
	if !ok {
		return fmt.Errorf("intercomm: retire of undeclared array %s.%s", p.name, array)
	}
	kept := set.times[:0]
	for _, t := range set.times {
		if t < olderThan {
			delete(set.byTime, t)
		} else {
			kept = append(kept, t)
		}
	}
	set.times = kept
	return nil
}

func insertSorted(ts []int, t int) []int {
	ts = append(ts, t)
	for i := len(ts) - 1; i > 0 && ts[i-1] > ts[i]; i-- {
		ts[i-1], ts[i] = ts[i], ts[i-1]
	}
	return ts
}

// DescriptorFootprint estimates the wire size in bytes of a template's
// descriptor — InterComm's observation made measurable: block-style
// distributions have small descriptors cheap to replicate on every
// process, while explicit distributions carry per-patch (in the limit,
// per-element) descriptors that must be partitioned.
func DescriptorFootprint(t *dad.Template) int {
	e := wire.NewEncoder(nil)
	t.Encode(e)
	return e.Len()
}

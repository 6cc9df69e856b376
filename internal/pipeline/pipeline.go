// Package pipeline assembles sequences of data transformations and data
// redistributions — the composition story of the paper's Section 6: "To
// utilize the resulting sequence of data transformations and data
// redistributions, a pipeline of components can be assembled," with
// filters "e.g. for spatial and temporal interpolation or unit
// conversions."
//
// A pipeline is a source decomposition followed by stages, each a target
// decomposition plus an optional per-element filter (the unit-conversion
// class of transformations, which commute with redistribution). Pipelines
// execute two ways:
//
//   - Chained: materialize the data at every stage — one redistribution
//     and one filter pass per stage. Simple, and the only option for
//     filters that do not commute with redistribution.
//   - Fused: compose all redistribution schedules into one (the paper's
//     "super-component") and all elementwise filters into one function
//     applied at the sink — one data movement and one filter pass total,
//     "operat[ing] on data in place and avoid[ing] unnecessary data
//     copies."
package pipeline

import (
	"fmt"

	"mxn/internal/dad"
	"mxn/internal/redist"
	"mxn/internal/schedule"
)

// Filter is a per-element transformation (a unit conversion, scaling,
// bias, ...). Filters of this class commute with redistribution, which is
// what makes fusion valid.
type Filter func(x float64) float64

// Stage is one pipeline step: redistribute into Template's decomposition,
// then apply Filter to every local element (nil means identity).
type Stage struct {
	Template *dad.Template
	Filter   Filter
}

// Pipeline is an assembled sequence of stages applied to data that starts
// in the source decomposition.
type Pipeline struct {
	src    *dad.Template
	stages []Stage

	chained     []*schedule.Schedule // per-stage schedules, built lazily
	fused       *schedule.Schedule
	fusedFilter Filter
}

// New validates and assembles a pipeline. Every stage template must
// conform to the source's global index space.
func New(src *dad.Template, stages ...Stage) (*Pipeline, error) {
	if src == nil || len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: need a source and at least one stage")
	}
	for i, st := range stages {
		if st.Template == nil {
			return nil, fmt.Errorf("pipeline: stage %d has no template", i)
		}
		if !src.Conforms(st.Template) {
			return nil, fmt.Errorf("pipeline: stage %d does not conform to the source index space", i)
		}
	}
	return &Pipeline{src: src, stages: append([]Stage(nil), stages...)}, nil
}

// Source returns the pipeline's source decomposition.
func (p *Pipeline) Source() *dad.Template { return p.src }

// Sink returns the final stage's decomposition.
func (p *Pipeline) Sink() *dad.Template { return p.stages[len(p.stages)-1].Template }

// NumStages returns the stage count.
func (p *Pipeline) NumStages() int { return len(p.stages) }

// stageSchedules builds (once) and returns the per-stage schedules.
func (p *Pipeline) stageSchedules() ([]*schedule.Schedule, error) {
	if p.chained != nil {
		return p.chained, nil
	}
	scheds := make([]*schedule.Schedule, len(p.stages))
	curT := p.src
	for i, st := range p.stages {
		s, err := schedule.Build(curT, st.Template)
		if err != nil {
			return nil, fmt.Errorf("pipeline: stage %d: %w", i, err)
		}
		scheds[i] = s
		curT = st.Template
	}
	p.chained = scheds
	return scheds, nil
}

// RunChained executes the pipeline stage by stage, materializing the data
// in every intermediate decomposition. Stage schedules are built once and
// reused across calls.
func (p *Pipeline) RunChained(srcLocals [][]float64) ([][]float64, error) {
	scheds, err := p.stageSchedules()
	if err != nil {
		return nil, err
	}
	cur := srcLocals
	for i, st := range p.stages {
		s := scheds[i]
		next := make([][]float64, st.Template.NumProcs())
		for r := range next {
			next[r] = make([]float64, st.Template.LocalCount(r))
		}
		redist.ExecuteLocalT(s, cur, next)
		if st.Filter != nil {
			for _, local := range next {
				for k, v := range local {
					local[k] = st.Filter(v)
				}
			}
		}
		cur = next
	}
	return cur, nil
}

// Fuse composes the pipeline into a single schedule (source decomposition
// directly to the sink's) and a single composed filter. The result is
// cached; Fuse is idempotent.
func (p *Pipeline) Fuse() (*schedule.Schedule, Filter, error) {
	if p.fused != nil {
		return p.fused, p.fusedFilter, nil
	}
	s, err := schedule.Build(p.src, p.stages[0].Template)
	if err != nil {
		return nil, nil, err
	}
	for i := 1; i < len(p.stages); i++ {
		next, err := schedule.Build(p.stages[i-1].Template, p.stages[i].Template)
		if err != nil {
			return nil, nil, err
		}
		if s, err = schedule.Compose(s, next); err != nil {
			return nil, nil, fmt.Errorf("pipeline: fusing stage %d: %w", i, err)
		}
	}
	var filters []Filter
	for _, st := range p.stages {
		if st.Filter != nil {
			filters = append(filters, st.Filter)
		}
	}
	var fused Filter
	if len(filters) > 0 {
		fused = func(x float64) float64 {
			for _, f := range filters {
				x = f(x)
			}
			return x
		}
	}
	p.fused = s
	p.fusedFilter = fused
	return s, fused, nil
}

// RunFused executes the pipeline as one movement plus one filter pass at
// the sink.
func (p *Pipeline) RunFused(srcLocals [][]float64) ([][]float64, error) {
	s, filter, err := p.Fuse()
	if err != nil {
		return nil, err
	}
	sink := p.Sink()
	out := make([][]float64, sink.NumProcs())
	for r := range out {
		out[r] = make([]float64, sink.LocalCount(r))
	}
	redist.ExecuteLocalT(s, srcLocals, out)
	if filter != nil {
		for _, local := range out {
			for k, v := range local {
				local[k] = filter(v)
			}
		}
	}
	return out, nil
}

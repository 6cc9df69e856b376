package mct

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/schedule"
)

// Router is MCT's communication scheduler for intermodule parallel data
// transfer: built once from a source and a destination GlobalSegMap, then
// reused for every AttrVect exchange between the two models. All fields of
// a vector travel in one message per communicating rank pair, packed
// attribute-major (the multi-field, cache-friendly transfer the paper
// credits MCT with).
type Router struct {
	src, dst *GlobalSegMap
	sched    *schedule.Schedule
}

// NewRouter computes the communication schedule between two segment maps
// over the same global index space.
func NewRouter(src, dst *GlobalSegMap) (*Router, error) {
	if src.GSize() != dst.GSize() {
		return nil, fmt.Errorf("mct: router between maps of %d and %d points", src.GSize(), dst.GSize())
	}
	st, err := src.Template()
	if err != nil {
		return nil, err
	}
	dt, err := dst.Template()
	if err != nil {
		return nil, err
	}
	s, err := schedule.Build(st, dt)
	if err != nil {
		return nil, err
	}
	return &Router{src: src, dst: dst, sched: s}, nil
}

// Schedule exposes the underlying communication schedule.
func (r *Router) Schedule() *schedule.Schedule { return r.sched }

// Send posts rank's outgoing fragments of av to the destination model.
// c must span both models; dstBase is the destination model's first group
// rank. Send never blocks on the receiver.
func (r *Router) Send(c *comm.Comm, dstBase, rank int, av *AttrVect, tag int) error {
	if av.Len() != r.src.LocalSize(rank) {
		return fmt.Errorf("mct: send vector has %d points, map says %d", av.Len(), r.src.LocalSize(rank))
	}
	na := av.NumAttrs()
	for _, plan := range r.sched.OutgoingFor(rank) {
		buf := make([]float64, na*plan.Elems)
		for a := 0; a < na; a++ {
			schedule.PackSlice(plan, av.FieldAt(a), buf[a*plan.Elems:(a+1)*plan.Elems])
		}
		c.Send(dstBase+plan.DstRank, tag, buf)
	}
	return nil
}

// Recv completes rank's incoming fragments into av. srcBase is the source
// model's first group rank.
func (r *Router) Recv(c *comm.Comm, srcBase, rank int, av *AttrVect, tag int) error {
	if av.Len() != r.dst.LocalSize(rank) {
		return fmt.Errorf("mct: recv vector has %d points, map says %d", av.Len(), r.dst.LocalSize(rank))
	}
	na := av.NumAttrs()
	for _, plan := range r.sched.IncomingFor(rank) {
		payload, _ := c.Recv(srcBase+plan.SrcRank, tag)
		buf, ok := payload.([]float64)
		if !ok {
			return fmt.Errorf("mct: recv got %T", payload)
		}
		if len(buf) != na*plan.Elems {
			return fmt.Errorf("mct: pair %d→%d carried %d values, want %d (attribute lists must match)",
				plan.SrcRank, plan.DstRank, len(buf), na*plan.Elems)
		}
		for a := 0; a < na; a++ {
			schedule.UnpackSlice(plan, av.FieldAt(a), buf[a*plan.Elems:(a+1)*plan.Elems])
		}
	}
	return nil
}

// Rearrange redistributes src into dst within one model (MCT's
// intra-module parallel data redistribution): every rank of the
// communicator calls it with its local vectors. Both maps must be
// decomposed over the calling communicator's ranks.
func (r *Router) Rearrange(c *comm.Comm, src, dst *AttrVect, tag int) error {
	rank := c.Rank()
	if err := r.Send(c, 0, rank, src, tag); err != nil {
		return err
	}
	return r.Recv(c, 0, rank, dst, tag)
}

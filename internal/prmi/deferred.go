package prmi

// Deferred parallel arguments: the paper's second strategy for callee-side
// layouts (Section 2.4). Instead of registering a layout before any call
// arrives, "the second possibility is to pass to the provides side a
// reference to the data object on the uses side, and to delay the actual
// transfer of data until the provides side has specified its layout."
//
// A caller passes ParallelRef(...) instead of Parallel(...): the
// invocation header then carries only a reference, no data. The handler,
// once it has decided its layout — which may depend on the call's simple
// arguments — calls Incoming.Pull(name, layout): the endpoint sends pull
// requests to the caller ranks that hold the needed pieces, the callers
// serve them from the referenced buffers while they wait for the reply,
// and Pull returns the assembled local fragment.

import (
	"fmt"

	"mxn/internal/bufpool"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// Additional wire message kinds for the pull protocol.
//
//	msgPull head:     seq u64 · argument name · callee rank uvarint ·
//	                  layout template key · layout template encoding,
//	                  unprefixed, to the end of the head
//	msgPullData head: seq u64 · argument name · byte length uvarint;
//	                  the payload is the served piece
const (
	msgPull byte = iota + 10
	msgPullData
)

// ParallelRef builds a parallel in-argument passed by reference: the data
// stays on the caller until the callee specifies its layout and pulls.
func ParallelRef(name string, t *dad.Template, local []float64) Arg {
	return Arg{Name: name, Par: &ParallelData{Template: t, Local: local, deferred: true}}
}

// stashKey identifies a referenced buffer held while a call is in flight.
type stashKey struct {
	seq  uint64
	name string
}

// stashEntry is one referenced argument awaiting pulls.
type stashEntry struct {
	tpl   *dad.Template
	local []float64
	pos   int // this caller's position among the participants
}

// servePull answers one pull request from a referenced buffer: it decodes
// the callee's (late) layout, computes the schedule on demand, packs this
// caller's piece for the requesting callee rank and sends it back.
func (p *CallerPort) servePull(req *Msg) error {
	d := wire.NewDecoder(req.head[1:])
	seq, name, callee := d.Uint64(), d.String(), int(d.Uvarint())
	key, enc := d.String(), req.head[len(req.head)-d.Remaining():]
	if d.Err() != nil {
		return fmt.Errorf("prmi: corrupt pull request: %w", d.Err())
	}
	ent, ok := p.stash[stashKey{seq, name}]
	if !ok {
		return fmt.Errorf("prmi: pull for unknown reference %s/%d", name, seq)
	}
	calleeTpl, err := cachedTemplate(p.tcache, key, enc)
	if err != nil {
		return err
	}
	s, err := p.scheds.Get(ent.tpl, calleeTpl)
	if err != nil {
		return err
	}
	var payload []byte
	for _, pair := range s.OutgoingFor(ent.pos) {
		if pair.DstRank == callee {
			payload = bufpool.Get(8 * pair.Elems)
			schedule.PackSlice(pair, ent.local, float64sOf(payload))
			mFragElemsPacked.Add(uint64(pair.Elems))
			break
		}
	}
	mPullsServed.Inc()
	p.enc.Reset()
	p.enc.PutByte(msgPullData)
	p.enc.PutUint64(seq)
	p.enc.PutString(name)
	p.enc.PutUvarint(uint64(len(payload)))
	return p.link.Send(callee, newMsg(p.enc.Bytes(), payload))
}

// Pull fetches a referenced parallel argument into the given callee-side
// layout. It is only valid on collective invocations whose caller passed
// ParallelRef for name, and embodies the delayed-transfer strategy: the
// layout is chosen here, at service time, possibly from the call's other
// arguments. The returned slice is the handler's to keep.
func (in *Incoming) Pull(name string, layout *dad.Template) ([]float64, error) {
	if in.pull == nil {
		return nil, fmt.Errorf("prmi: no deferred arguments on this invocation")
	}
	return in.pull(name, layout)
}

// HasDeferred reports whether the named parallel argument was passed by
// reference and must be fetched with Pull.
func (in *Incoming) HasDeferred(name string) bool {
	_, ok := in.deferred[name]
	return ok
}

// pullDeferred is the endpoint-side implementation bound into Incoming.
func (ep *Endpoint) pullDeferred(pl *plan, hdrs []callHdr) func(string, *dad.Template) ([]float64, error) {
	return func(name string, layout *dad.Template) ([]float64, error) {
		var pp *planParam
		for i := range pl.params {
			if pl.params[i].spec.Name == name && pl.params[i].deferred {
				pp = &pl.params[i]
			}
		}
		if pp == nil {
			return nil, fmt.Errorf("prmi: %s(%s) was not passed by reference", pl.method.Name, name)
		}
		if layout == nil || layout.NumProcs() != ep.nCallee {
			return nil, fmt.Errorf("prmi: pull layout must span the callee cohort of %d", ep.nCallee)
		}
		s, err := ep.scheds.Get(pp.tpl, layout)
		if err != nil {
			return nil, err
		}
		// Request this rank's pieces from the callers that hold them.
		pairs := s.IncomingFor(ep.rank)
		for _, pair := range pairs {
			ep.enc.Reset()
			ep.enc.PutByte(msgPull)
			ep.enc.PutUint64(hdrs[pair.SrcRank].seq)
			ep.enc.PutString(name)
			ep.enc.PutUvarint(uint64(ep.rank))
			ep.enc.PutString(layout.Key())
			layout.Encode(&ep.enc)
			if err := ep.link.Send(pl.participants[pair.SrcRank], newMsg(ep.enc.Bytes(), nil)); err != nil {
				return nil, err
			}
		}
		local := make([]float64, layout.LocalCount(ep.rank))
		for _, pair := range pairs {
			callerRank := pl.participants[pair.SrcRank]
			// The caller sends nothing else while it serves pulls, and any
			// call held back from it was sent before this invocation.
			m, err := ep.recvFrom(callerRank, ep.StallTimeout)
			if err != nil {
				return nil, err
			}
			d := wire.NewDecoder(m.head)
			kind, _, arg, n := d.Byte(), d.Uint64(), d.String(), d.Uvarint()
			if d.Err() != nil || kind != msgPullData || arg != name || n != uint64(8*pair.Elems) || n != uint64(len(m.payload)) {
				m.Release()
				return nil, fmt.Errorf("prmi: pulled fragment mismatch from caller %d (kind %d, %q, %d bytes, want %d elements)",
					callerRank, kind, arg, n, pair.Elems)
			}
			schedule.UnpackSlice(pair, local, m.elems(0, pair.Elems))
			mFragElemsUnpacked.Add(uint64(pair.Elems))
			m.Release()
		}
		return local, nil
	}
}

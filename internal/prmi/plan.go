package prmi

import (
	"fmt"
	"slices"
	"sort"

	"mxn/internal/bufpool"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/sidl"
	"mxn/internal/wire"
)

// plan is everything about an invocation that does not change from call
// to call, seen from one rank: the method, the participants, and for every
// parallel parameter the pairwise plans this rank packs and unpacks,
// indexed by peer (callee ranks on the caller, participant positions on
// the callee). The caller derives it from its arguments and caches it by
// (method, participants, templates); the callee derives it from the plan
// key in the call head and caches it by that key. Planning once replaces a
// schedule-cache key build and a linear pair scan per parameter per peer
// per call.
type plan struct {
	method       *sidl.Method
	participants []int // sorted caller cohort ranks; nil for independent calls
	key          []byte
	params       []planParam // the parallel parameters, in spec order
	// peers lists who this rank exchanges replies with: on the caller, the
	// callee ranks whose reply it awaits (its designated callee under the
	// ghost-return policy plus every callee holding out/inout data for
	// it); on the callee, the participant positions owed a reply.
	peers []int

	pos     int    // caller: this rank's position among participants
	encSent []bool // caller: callee ranks that have every template encoding
}

// planParam is one parallel parameter of a plan.
type planParam struct {
	spec     sidl.Param
	tpl      *dad.Template // caller-side distribution
	enc      []byte        // its wire encoding (caller side)
	deferred bool          // passed by reference; the callee pulls it
	// send[i] / recv[i] is what moves to / from peer i (Elems 0 when
	// nothing does); nil when the parameter's mode moves nothing that way.
	send, recv []schedule.PairPlan
	// covered reports that recv fills every local element, so the
	// callee's assembled array (nLocal elements) needs no zeroing first.
	covered bool
	nLocal  int
}

// encodeKey sets pl.key: method string · participant count and ranks
// (uvarints) · per parallel parameter, in spec order: caller template key,
// deferred flag.
func (pl *plan) encodeKey() {
	e := wire.NewEncoder(nil)
	e.PutString(pl.method.Name)
	e.PutUvarint(uint64(len(pl.participants)))
	for _, r := range pl.participants {
		e.PutUvarint(uint64(r))
	}
	for i := range pl.params {
		e.PutString(pl.params[i].tpl.Key())
		e.PutBool(pl.params[i].deferred)
	}
	pl.key = e.Bytes()
}

// addParam plans one parallel parameter for rank me of nPeers peers:
// out is the schedule me sends under, in the one it receives under (either
// may be nil).
func (pl *plan) addParam(pp planParam, out, in *schedule.Schedule, me, nPeers int) {
	if out != nil {
		pp.send = make([]schedule.PairPlan, nPeers)
		for _, pair := range out.OutgoingFor(me) {
			pp.send[pair.DstRank] = pair
		}
	}
	if in != nil {
		pp.recv = make([]schedule.PairPlan, nPeers)
		total := 0
		for _, pair := range in.IncomingFor(me) {
			pp.recv[pair.SrcRank] = pair
			total += pair.Elems
		}
		pp.covered = total == in.Dst.LocalCount(me)
	}
	pl.params = append(pl.params, pp)
}

// schedules returns the forward (caller→callee) and reverse schedules a
// parameter's mode calls for, after checking that both templates span
// their cohorts (the per-peer tables are indexed by schedule rank).
func schedules(c *schedule.Cache, pp *planParam, calleeTpl *dad.Template, nParts, nCallee int) (fwd, rev *schedule.Schedule, err error) {
	if pp.tpl.NumProcs() != nParts {
		return nil, nil, fmt.Errorf("decomposed over %d ranks but %d participate (the participation communicator defines the scope of parallel arguments)", pp.tpl.NumProcs(), nParts)
	}
	if pp.deferred {
		return nil, nil, nil
	}
	if calleeTpl.NumProcs() != nCallee {
		return nil, nil, fmt.Errorf("callee layout spans %d ranks, callee cohort has %d", calleeTpl.NumProcs(), nCallee)
	}
	if pp.spec.Mode != sidl.Out {
		if fwd, err = c.Get(pp.tpl, calleeTpl); err != nil {
			return nil, nil, err
		}
	}
	if pp.spec.Mode != sidl.In {
		rev, err = c.Get(calleeTpl, pp.tpl)
	}
	return fwd, rev, err
}

// pairs returns the per-peer plans of one direction.
func (pp *planParam) pairs(send bool) []schedule.PairPlan {
	if send {
		return pp.send
	}
	return pp.recv
}

// addPeers appends to pl.peers every peer i that is designated(i) or that
// some parameter exchanges reply data with: sent to on the callee,
// received from on the caller. A call with a by-reference argument pairs
// everyone with everyone: the caller serves pulls only while it waits, and
// which callees will pull is not known until their handlers pick a layout.
func (pl *plan) addPeers(nPeers int, send bool, designated func(int) bool) {
	for i := 0; i < nPeers; i++ {
		owed := designated(i)
		for k := range pl.params {
			pairs := pl.params[k].pairs(send)
			if pl.params[k].deferred || (pairs != nil && pairs[i].Elems > 0) {
				owed = true
			}
		}
		if owed {
			pl.peers = append(pl.peers, i)
		}
	}
}

// payloadBytes sums the fragment bytes of the message sent to (or received
// from) peer i.
func payloadBytes(params []planParam, i int, send bool) (n int) {
	for k := range params {
		if pairs := params[k].pairs(send); pairs != nil {
			n += 8 * pairs[i].Elems
		}
	}
	return n
}

// pack returns a pooled payload holding the fragment of every parameter
// this rank sends peer i, back to back in parameter order, each packed
// from local(k), parameter k's array on this rank.
func pack(params []planParam, i int, local func(k int) []float64) []byte {
	payload := bufpool.Get(payloadBytes(params, i, true))
	off := 0
	for k := range params {
		if send := params[k].send; send != nil && send[i].Elems > 0 {
			n := send[i].Elems
			schedule.PackSlice(send[i], local(k), float64sOf(payload[off:off+8*n]))
			mFragElemsPacked.Add(uint64(n))
			off += 8 * n
		}
	}
	return payload
}

// unpack scatters the fragments of m, received from peer i, into local(k).
// The caller has checked m's payload length against payloadBytes.
func unpack(params []planParam, i int, m *Msg, local func(k int) []float64) {
	off := 0
	for k := range params {
		if recv := params[k].recv; recv != nil && recv[i].Elems > 0 {
			n := recv[i].Elems
			schedule.UnpackSlice(recv[i], local(k), m.elems(off, n))
			mFragElemsUnpacked.Add(uint64(n))
			off += 8 * n
		}
	}
}

// maxPlans bounds both plan caches; a full cache is emptied rather than
// tracked by recency — plans are cheap to rebuild from the schedule cache
// and a steady coupling uses a handful.
const maxPlans = 64

// planFor binds args to m, encodes the simple-argument section into
// p.senc, leaves the parallel arguments in p.par (parameter order) and
// returns the cached plan for (m, ranks, argument templates), building it
// on first use. Independent calls (collective false) transfer no parallel
// parameters and have no participants.
func (p *CallerPort) planFor(m *sidl.Method, collective bool, ranks []int, args []Arg) (*plan, error) {
	if err := p.bindArgs(m, args, collective); err != nil {
		return nil, err
	}
	if !sort.IntsAreSorted(ranks) {
		ranks = append([]int(nil), ranks...)
		sort.Ints(ranks)
	}
search:
	for _, pl := range p.plans {
		if pl.method != m || !slices.Equal(pl.participants, ranks) {
			continue
		}
		for i, data := range p.par {
			if pl.params[i].tpl != data.Template || pl.params[i].deferred != data.deferred {
				continue search
			}
		}
		return pl, nil
	}
	pl := &plan{method: m, participants: append([]int(nil), ranks...), pos: -1, encSent: make([]bool, p.nCallee)}
	for k, r := range ranks {
		if r == p.rank {
			pl.pos = k
		}
	}
	if collective && pl.pos < 0 {
		return nil, fmt.Errorf("prmi: caller rank %d not in participation set %v", p.rank, ranks)
	}
	for _, pr := range m.Params {
		if !pr.Parallel || !collective {
			continue
		}
		data := p.par[len(pl.params)]
		enc := wire.NewEncoder(nil)
		data.Template.Encode(enc)
		pp := planParam{spec: pr, tpl: data.Template, deferred: data.deferred, enc: enc.Bytes()}
		calleeTpl := p.layouts[m.Name+"\x00"+pr.Name]
		switch {
		case !pp.deferred && calleeTpl == nil:
			return nil, fmt.Errorf("prmi: no callee layout registered for %s(%s) (register one, or pass ParallelRef for the delayed-transfer strategy)", m.Name, pr.Name)
		case pp.deferred && pr.Mode != sidl.In:
			return nil, fmt.Errorf("prmi: %s(%s): deferred arguments must be in-parameters", m.Name, pr.Name)
		case pp.deferred && m.OneWay:
			return nil, fmt.Errorf("prmi: %s(%s): deferred arguments need a blocking call (the caller serves pulls while waiting)", m.Name, pr.Name)
		}
		fwd, rev, err := schedules(p.scheds, &pp, calleeTpl, len(ranks), p.nCallee)
		if err != nil {
			return nil, fmt.Errorf("prmi: %s(%s): %w", m.Name, pr.Name, err)
		}
		pl.addParam(pp, fwd, rev, pl.pos, p.nCallee)
	}
	if collective {
		pl.addPeers(p.nCallee, false, func(j int) bool { return j == pl.pos%p.nCallee })
	}
	pl.encodeKey()
	if len(p.plans) >= maxPlans {
		p.plans = p.plans[:0]
	}
	p.plans = append(p.plans, pl)
	return pl, nil
}

// planFor resolves the plan a call head names by its key, building and
// caching it on first sight. frags is the head's per-parameter section,
// consulted only then, for template encodings this endpoint has not seen.
func (ep *Endpoint) planFor(key []byte, frags wire.Decoder) (*plan, error) {
	if pl := ep.plans[string(key)]; pl != nil {
		return pl, nil
	}
	d := wire.NewDecoder(key)
	name := d.String()
	m, ok := ep.iface.Method(name)
	if !ok {
		return nil, fmt.Errorf("prmi: callee received unknown method %q", name)
	}
	pl := &plan{method: m, key: append([]byte(nil), key...)}
	nParts := d.Uvarint()
	if d.Err() != nil || nParts > uint64(ep.nCaller) {
		return nil, fmt.Errorf("prmi: %s: %d participants from a caller cohort of %d: %w", name, nParts, ep.nCaller, wire.ErrCorrupt)
	}
	for i := uint64(0); i < nParts; i++ {
		r := d.Uvarint()
		if r >= uint64(ep.nCaller) || (i > 0 && int(r) <= pl.participants[i-1]) {
			return nil, fmt.Errorf("prmi: %s: participant list is not a sorted subset of the caller cohort: %w", name, wire.ErrCorrupt)
		}
		pl.participants = append(pl.participants, int(r))
	}
	for _, pr := range m.Params {
		if !pr.Parallel || nParts == 0 {
			continue
		}
		pp := planParam{spec: pr}
		tkey := d.String()
		pp.deferred = d.Bool()
		enc := frags.BorrowBytes()
		_ = frags.Uvarint()
		if d.Err() != nil || frags.Err() != nil {
			return nil, fmt.Errorf("prmi: corrupt plan key for %q: %w", name, wire.ErrCorrupt)
		}
		var err error
		if pp.tpl, err = cachedTemplate(ep.tcache, tkey, enc); err != nil {
			return nil, err
		}
		// A parameter passed by reference is pulled by the handler after
		// it chooses a layout (the paper's delayed-transfer strategy):
		// nothing to plan and no registered layout required.
		calleeTpl := ep.layouts[name+"\x00"+pr.Name]
		if calleeTpl == nil && !pp.deferred {
			return nil, fmt.Errorf("prmi: no layout registered for %s(%s) on callee", name, pr.Name)
		}
		fwd, rev, err := schedules(ep.scheds, &pp, calleeTpl, int(nParts), ep.nCallee)
		if err != nil {
			return nil, fmt.Errorf("prmi: %s(%s): %w", name, pr.Name, err)
		}
		if calleeTpl != nil {
			pp.nLocal = calleeTpl.LocalCount(ep.rank)
		}
		pl.addParam(pp, rev, fwd, ep.rank, int(nParts))
	}
	pl.addPeers(int(nParts), true, func(k int) bool { return k%ep.nCallee == ep.rank })
	if len(ep.plans) >= maxPlans {
		clear(ep.plans)
	}
	ep.plans[string(pl.key)] = pl
	return pl, nil
}

func paramNamed(m *sidl.Method, name string) (sidl.Param, bool) {
	for _, pr := range m.Params {
		if pr.Name == name {
			return pr, true
		}
	}
	return sidl.Param{}, false
}

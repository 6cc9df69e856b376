package prmi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/sidl"
	"mxn/internal/wire"
)

// ErrStalled reports that a callee rank committed to a collective
// invocation and waited longer than the configured stall timeout for the
// remaining participants — the observable symptom of the Figure 5
// synchronization problem under eager delivery.
var ErrStalled = errors.New("prmi: collective invocation stalled waiting for participants")

// OrderViolationError reports that while collecting a collective
// invocation the endpoint received a *different* call from a participant —
// consecutive collective calls from intersecting participant sets were
// delivered inconsistently (the failure barrier-delayed delivery
// prevents).
type OrderViolationError struct {
	Committed      string // method the endpoint committed to
	CommittedParts []int  // its participant set
	Received       string // method that arrived instead
	ReceivedParts  []int  // its participant set
	From           int    // caller cohort rank it arrived from
}

func (e *OrderViolationError) Error() string {
	return fmt.Sprintf("prmi: invocation order violation: committed to %q with participants %v but caller %d sent %q with participants %v",
		e.Committed, e.CommittedParts, e.From, e.Received, e.ReceivedParts)
}

// Incoming is the callee-side view of one logical invocation at one callee
// rank.
type Incoming struct {
	Method       string
	CalleeRank   int
	Participants []int          // caller cohort ranks; nil for independent calls
	CallerRank   int            // for independent calls, the caller
	Simple       map[string]any // simple in/inout arguments (replicated)
	// Parallel holds each parallel in/inout argument assembled into this
	// rank's fragment of the callee-side distribution. Deferred
	// (by-reference) arguments are absent here; fetch them with Pull.
	Parallel map[string][]float64

	deferred map[string]bool
	pull     func(name string, layout *dad.Template) ([]float64, error)
}

// Outgoing is what a handler produces. For inout parallel parameters the
// assembled buffer is pre-installed in Parallel so handlers may mutate it
// in place; for out parallel parameters a zeroed buffer of the registered
// layout's local size is pre-installed.
//
// The slices pre-installed in Incoming.Parallel and Outgoing.Parallel are
// pooled and valid until the handler returns; a handler that wants to keep
// data copies it. It may replace Parallel[name] with a slice of its own.
type Outgoing struct {
	Return    any
	SimpleOut map[string]any
	Parallel  map[string][]float64
}

// Handler services one method at one callee rank. For collective methods
// it runs once per callee rank per logical invocation (including ghost
// invocations on ranks beyond the participant count).
type Handler func(in *Incoming, out *Outgoing) error

// Endpoint is one callee rank's server for a remote parallel port.
type Endpoint struct {
	iface   *sidl.Interface
	link    Link
	rank    int // callee cohort rank
	nCallee int
	nCaller int

	handlers map[string]Handler
	layouts  map[string]*dad.Template
	scheds   *schedule.Cache
	tcache   map[string]*dad.Template

	// CheckSimpleArgs enables verification that simple arguments carry
	// the same value on every participant — the consistency policy the
	// paper says frameworks may skip for performance.
	CheckSimpleArgs bool
	// StallTimeout bounds how long a committed collective invocation
	// waits for its remaining participants; zero blocks forever (faithful
	// deadlock).
	StallTimeout time.Duration
	// StrictMatching selects how a mismatched invocation from a
	// participant is treated while collecting a collective call. When
	// true, the endpoint fails fast with an *OrderViolationError. When
	// false — the faithful reproduction of Figure 5 — the mismatched call
	// is held back, to be served after the committed call, and the
	// endpoint keeps waiting for the committed call, blocking indefinitely
	// (or until StallTimeout) exactly as the paper describes. Calls from
	// callers the collection is not waiting on are never read meanwhile:
	// they wait in the link, in the order they arrived.
	StrictMatching bool

	plans   map[string]*plan // by plan key, see planFor
	held    []heldMsg        // held-back calls, served before the link
	closed  map[int]bool
	members *core.Membership // caller-cohort view; nil disables fencing

	// Per-invocation scratch: the head encoder, the collected headers by
	// participant position, and the pooled assembled arrays by parallel
	// parameter.
	enc    wire.Encoder
	hdrs   []callHdr
	arrays [][]byte
}

// heldMsg is a call held back while collecting a collective invocation.
type heldMsg struct {
	src int
	m   *Msg
}

// NewEndpoint builds a callee-rank server. rank is this callee's cohort
// rank, nCallee the callee cohort size, nCaller the caller cohort size.
func NewEndpoint(iface *sidl.Interface, link Link, rank, nCallee, nCaller int) *Endpoint {
	return &Endpoint{
		iface:    iface,
		link:     link,
		rank:     rank,
		nCallee:  nCallee,
		nCaller:  nCaller,
		handlers: map[string]Handler{},
		layouts:  map[string]*dad.Template{},
		scheds:   schedule.NewCache(),
		tcache:   map[string]*dad.Template{},
		plans:    map[string]*plan{},
		closed:   map[int]bool{},
	}
}

// SetMembership installs a liveness view over the caller cohort. With a
// membership set the endpoint fences invocations by epoch — a call stamped
// with an epoch older than the current view is rejected with an error
// reply instead of executing against survivors it no longer matches — and
// collective collection fails fast with *core.ErrRankDown when a missing
// participant is marked down, instead of stalling to the timeout.
func (ep *Endpoint) SetMembership(m *core.Membership) { ep.members = m }

// Handle registers the implementation of a method.
func (ep *Endpoint) Handle(method string, h Handler) error {
	if _, ok := ep.iface.Method(method); !ok {
		return fmt.Errorf("prmi: no method %q in interface %s", method, ep.iface.Name)
	}
	ep.handlers[method] = h
	return nil
}

// RegisterArgLayout declares the callee-side distribution of a parallel
// parameter — the "special framework service" strategy for announcing
// layouts before any call arrives. The template must be decomposed over
// the callee cohort.
func (ep *Endpoint) RegisterArgLayout(method, param string, t *dad.Template) error {
	m, ok := ep.iface.Method(method)
	if !ok {
		return fmt.Errorf("prmi: no method %q", method)
	}
	if pr, ok := paramNamed(m, param); !ok || !pr.Parallel {
		return fmt.Errorf("prmi: %s has no parallel parameter %q", method, param)
	}
	if t.NumProcs() != ep.nCallee {
		return fmt.Errorf("prmi: layout for %s(%s) spans %d ranks, callee cohort has %d",
			method, param, t.NumProcs(), ep.nCallee)
	}
	ep.layouts[method+"\x00"+param] = t
	clear(ep.plans) // planned against the previous layout
	return nil
}

// EncodeLayouts serializes the registered layouts for transmission to the
// caller side at connect time (consumed by CallerPort.ApplyLayouts).
func (ep *Endpoint) EncodeLayouts() []byte {
	e := wire.NewEncoder(nil)
	e.PutUvarint(uint64(len(ep.layouts)))
	for key, t := range ep.layouts {
		method, param, _ := strings.Cut(key, "\x00")
		e.PutString(method)
		e.PutString(param)
		t.Encode(e)
	}
	return e.Bytes()
}

// Serve processes invocations until every caller rank has closed its
// port, servicing each caller's calls in the order that caller sent them:
// calls held back while collecting a collective invocation first, in the
// order they were read, then the link's in arrival order. It returns nil
// on clean shutdown, ErrStalled if a collective invocation exceeded
// StallTimeout, or an *OrderViolationError if participants delivered
// inconsistent calls. Calls still held back when it returns are released.
func (ep *Endpoint) Serve() error {
	defer func() {
		for _, h := range ep.held {
			h.m.Release()
		}
		ep.held = nil
	}()
	for {
		var src int
		var m *Msg
		var err error
		if len(ep.held) > 0 {
			src, m = ep.held[0].src, ep.held[0].m
			ep.held = ep.held[1:]
		} else if src, m, err = ep.link.Recv(AnyPeer, 0); err != nil {
			return err
		}
		done, err := ep.dispatch(src, m)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// dispatch handles one message, which it takes over; done reports clean
// shutdown.
func (ep *Endpoint) dispatch(src int, m *Msg) (done bool, err error) {
	switch kind := m.kind(); kind {
	case msgShutdown:
		m.Release()
		ep.closed[src] = true
		return len(ep.closed) == ep.nCaller, nil
	case msgDetach:
		m.Release()
		ep.detach(src)
		return len(ep.closed) == ep.nCaller, nil
	case msgCall:
		var hdr callHdr
		err := ep.decodeCall(src, m, &hdr)
		switch {
		case err != nil:
		case ep.members != nil && hdr.epoch != 0 && hdr.epoch < ep.members.Epoch():
			// The caller planned this invocation against a membership view
			// that has since changed; executing it could mix pre- and
			// post-failure data. Refuse it and let the caller re-plan.
			mStaleEpochCalls.Inc()
			err = ep.replyError(&hdr, fmt.Sprintf("stale epoch %d (view is at %d)", hdr.epoch, ep.members.Epoch()))
		case hdr.pos < 0:
			err = ep.serveIndependent(&hdr)
		default:
			return false, ep.serveCollective(&hdr) // releases m with the rest
		}
		m.Release()
		return false, err
	default:
		m.Release()
		return false, fmt.Errorf("prmi: endpoint received unexpected message kind %d from caller %d", kind, src)
	}
}

// decodeCall decodes a call head (layout at putCallHead), resolves its
// plan and checks every fragment length and the payload against it, so
// the unpack loops can trust the plan alone.
func (ep *Endpoint) decodeCall(src int, m *Msg, hdr *callHdr) error {
	d := wire.NewDecoder(m.head[1:])
	*hdr = callHdr{msg: m, seq: d.Uint64(), callerRank: src, epoch: d.Uint64(), pos: -1}
	key := d.BorrowBytes()
	if d.Err() != nil {
		return fmt.Errorf("prmi: corrupt call head: %w", d.Err())
	}
	pl, err := ep.planFor(key, *d)
	if err != nil {
		return err
	}
	hdr.plan = pl
	if len(pl.participants) > 0 {
		for k, r := range pl.participants {
			if r == hdr.callerRank {
				hdr.pos = k
			}
		}
		if hdr.pos < 0 {
			return fmt.Errorf("prmi: caller %d sent collective %q but is not among its participants %v", hdr.callerRank, pl.method.Name, pl.participants)
		}
	}
	total := 0
	for i := range pl.params {
		_ = d.BorrowBytes() // template encoding; planFor read it if it was new
		want := 0
		if recv := pl.params[i].recv; recv != nil {
			want = 8 * recv[hdr.pos].Elems
		}
		if got := d.Uvarint(); got != uint64(want) {
			return fmt.Errorf("prmi: %s(%s): caller %d fragment has %d bytes, schedule says %d elements",
				pl.method.Name, pl.params[i].spec.Name, hdr.callerRank, got, want/8)
		}
		total += want
	}
	hdr.simple = d.BorrowBytes()
	if d.Err() != nil || total != len(m.payload) {
		return fmt.Errorf("prmi: corrupt call from caller %d: %w", hdr.callerRank, wire.ErrCorrupt)
	}
	return nil
}

// detach retires a departing caller rank (an online shrink): it is
// counted as closed, so Serve returns once the *remaining* callers shut
// down. FIFO link delivery guarantees every call the departing rank sent
// before its detach was already dispatched here. Idempotent; a detach
// after a shutdown (or vice versa) changes nothing.
func (ep *Endpoint) detach(src int) {
	if !ep.closed[src] {
		ep.closed[src] = true
		mDetaches.Inc()
	}
}

// serveIndependent services a one-to-one invocation: the handler runs
// once per call message, and the link delivers each message once.
func (ep *Endpoint) serveIndependent(hdr *callHdr) error {
	m := hdr.plan.method
	simple, err := getSimple(hdr.simple, m)
	if err != nil {
		return fmt.Errorf("prmi: corrupt simple arguments from caller %d: %w", hdr.callerRank, err)
	}
	in := &Incoming{
		Method:     m.Name,
		CalleeRank: ep.rank,
		CallerRank: hdr.callerRank,
		Simple:     simple,
		Parallel:   map[string][]float64{},
	}
	mEndpointInvokes.Inc()
	out := &Outgoing{SimpleOut: map[string]any{}, Parallel: map[string][]float64{}}
	h := ep.handlers[m.Name]
	if h == nil {
		return ep.replyError(hdr, fmt.Sprintf("no handler for %q", m.Name))
	}
	herr := h(in, out)
	switch {
	case m.OneWay:
		return nil
	case herr != nil:
		return ep.sendReply(hdr, &replyMsg{errText: herr.Error()}, nil)
	}
	return ep.sendReply(hdr, &replyMsg{ret: out.Return, simpleOut: simpleOutSection(m, out)}, nil)
}

// sendReply answers hdr with rep. With out set (a collective invocation
// that succeeded) the reply also carries the fragment of every out/inout
// parallel parameter, packed from the handler's arrays for hdr's caller.
func (ep *Endpoint) sendReply(hdr *callHdr, rep *replyMsg, out *Outgoing) error {
	putReplyHead(&ep.enc, hdr.seq, rep)
	var payload []byte
	if out != nil {
		params := hdr.plan.params
		payload = pack(params, hdr.pos, func(i int) []float64 { return out.Parallel[params[i].spec.Name] })
	}
	return ep.link.Send(hdr.callerRank, newMsg(ep.enc.Bytes(), payload))
}

// replyAll sends rep to every caller that awaits this rank — its
// designated callers under the ghost-return policy and every caller owed
// out/inout data under the reverse schedules. Errors go to all of them
// too: a caller expecting data that never hears of a failure waits forever.
func (ep *Endpoint) replyAll(hdrs []callHdr, rep *replyMsg, out *Outgoing) error {
	return sendAll(ep.link, func() error {
		for _, k := range hdrs[0].plan.peers {
			if err := ep.sendReply(&hdrs[k], rep, out); err != nil {
				return err
			}
		}
		return nil
	})
}

// replyError refuses a call with an error reply — unless nobody would read
// it: one-way methods have no reply, and a collective caller only awaits
// the callees its plan names.
func (ep *Endpoint) replyError(hdr *callHdr, text string) error {
	if hdr.plan.method.OneWay || (hdr.pos >= 0 && !slices.Contains(hdr.plan.peers, hdr.pos)) {
		return nil
	}
	return ep.sendReply(hdr, &replyMsg{errText: text}, nil)
}

// serveCollective collects the all-to-all invocation this rank committed
// to by receiving first, assembles parallel arguments, runs the handler
// and distributes returns. It owns first's message and every message it
// collects: all are released, with the pooled arrays, when it returns.
func (ep *Endpoint) serveCollective(first *callHdr) (err error) {
	pl := first.plan
	m := pl.method
	mEndpointInvokes.Inc()
	ep.hdrs = append(ep.hdrs[:0], make([]callHdr, len(pl.participants))...)
	hdrs := ep.hdrs
	hdrs[first.pos] = *first
	var held []heldMsg // foreign calls of the participant being awaited
	defer func() {
		for k := range hdrs {
			hdrs[k].msg.Release()
		}
		for _, h := range held {
			h.m.Release()
		}
		for i, b := range ep.arrays {
			bufpool.Put(b)
			ep.arrays[i] = nil
		}
		ep.arrays = ep.arrays[:0]
	}()
	for k, p := range pl.participants {
		for hdrs[k].msg == nil {
			msg, at, err := ep.nextFrom(p, ep.StallTimeout)
			if err != nil {
				var rd *core.ErrRankDown
				if errors.As(err, &rd) {
					// Not a stall: the missing participant is dead and its
					// invocation is never coming. Surface the typed error.
					return fmt.Errorf("prmi: collecting %q: %w", m.Name, err)
				}
				return fmt.Errorf("%w: committed to %q, missing caller %d", ErrStalled, m.Name, p)
			}
			var hdr callHdr
			if kind := msg.kind(); kind != msgCall {
				err = fmt.Errorf("prmi: caller %d sent kind %d during collective %q", p, kind, m.Name)
			} else {
				err = ep.decodeCall(p, msg, &hdr)
			}
			switch {
			case err != nil:
			case hdr.plan == pl:
				hdrs[k] = hdr
				// Hold the foreign calls where the committed one was, ahead
				// of p's later ones, so that they are served after this
				// invocation and in p's order; not before now, or nextFrom
				// would hand them back to this collection.
				ep.held, held = slices.Insert(ep.held, at, held...), held[:0]
				continue
			case hdr.plan.method == m && slices.Equal(hdr.plan.participants, pl.participants):
				err = fmt.Errorf("prmi: callers %d and %d passed differently distributed arguments to %q", first.callerRank, p, m.Name)
			case ep.StrictMatching:
				err = &OrderViolationError{
					Committed: m.Name, CommittedParts: pl.participants,
					Received: hdr.plan.method.Name, ReceivedParts: hdr.plan.participants,
					From: p,
				}
			}
			if err != nil {
				msg.Release()
				return err
			}
			// Faithful mode: hold the foreign call back and keep waiting for
			// the committed one — if it can never arrive, this is the
			// Figure 5 deadlock.
			held = append(held, heldMsg{p, msg})
		}
	}

	if ep.CheckSimpleArgs {
		for k := range hdrs {
			if !bytes.Equal(hdrs[k].simple, first.simple) {
				err := fmt.Errorf("prmi: simple arguments of %q differ between callers %d and %d (the CCA convention requires equal values)",
					m.Name, first.callerRank, hdrs[k].callerRank)
				// Notify every caller that awaits this rank so none blocks on
				// a reply that will never come, then fail the endpoint.
				if !m.OneWay {
					_ = ep.replyAll(hdrs, &replyMsg{errText: err.Error()}, nil)
				}
				return err
			}
		}
	}

	simple, err := getSimple(first.simple, m)
	if err != nil {
		return fmt.Errorf("prmi: corrupt simple arguments from caller %d: %w", first.callerRank, err)
	}
	in := &Incoming{
		Method:       m.Name,
		CalleeRank:   ep.rank,
		Participants: pl.participants,
		Simple:       simple,
		Parallel:     map[string][]float64{},
	}
	out := &Outgoing{SimpleOut: map[string]any{}, Parallel: map[string][]float64{}}

	// Assemble parallel in/inout arguments straight from the callers'
	// payloads into pooled arrays; pre-install out buffers.
	for i := range pl.params {
		pp := &pl.params[i]
		if pp.deferred {
			if in.deferred == nil {
				in.deferred = map[string]bool{}
				in.pull = ep.pullDeferred(pl, hdrs)
			}
			in.deferred[pp.spec.Name] = true
			ep.arrays = append(ep.arrays, nil)
			continue
		}
		buf := bufpool.Get(8 * pp.nLocal)
		ep.arrays = append(ep.arrays, buf)
		local := float64sOf(buf)
		if !pp.covered {
			clear(local)
		}
		if pp.spec.Mode != sidl.Out {
			in.Parallel[pp.spec.Name] = local
		}
		// inout: handler mutates the assembled buffer; out: zeroed buffer.
		if pp.spec.Mode != sidl.In {
			out.Parallel[pp.spec.Name] = local
		}
	}
	for k := range hdrs {
		unpack(pl.params, k, hdrs[k].msg, func(i int) []float64 { return float64sOf(ep.arrays[i]) })
	}

	h := ep.handlers[m.Name]
	if h == nil {
		h = func(*Incoming, *Outgoing) error { return fmt.Errorf("no handler for %q", m.Name) }
	}
	herr := h(in, out)
	if m.OneWay {
		return nil
	}
	for i := range pl.params {
		if pp := &pl.params[i]; herr == nil && pp.send != nil && len(out.Parallel[pp.spec.Name]) != pp.nLocal {
			herr = fmt.Errorf("handler produced %d elements for %s, layout says %d",
				len(out.Parallel[pp.spec.Name]), pp.spec.Name, pp.nLocal)
		}
	}
	if herr != nil {
		return ep.replyAll(hdrs, &replyMsg{errText: herr.Error()}, nil)
	}
	return ep.replyAll(hdrs, &replyMsg{ret: out.Return, simpleOut: simpleOutSection(m, out)}, out)
}

// nextFrom returns the next message from caller src: the first call held
// back for it, else recvFrom's. at is the index in ep.held it came from,
// ep.held's length when it came from the link.
func (ep *Endpoint) nextFrom(src int, timeout time.Duration) (m *Msg, at int, err error) {
	for i, h := range ep.held {
		if h.src == src {
			ep.held = slices.Delete(ep.held, i, i+1)
			return h.m, i, nil
		}
	}
	m, err = ep.recvFrom(src, timeout)
	return m, len(ep.held), err
}

// recvFrom returns the link's next message from caller src, leaving every
// other caller's messages in the link. timeout <= 0 blocks forever. With
// a membership view set, the wait polls and fails fast with
// *core.ErrRankDown once src is marked down — a crashed participant's
// collective message is never coming.
func (ep *Endpoint) recvFrom(src int, timeout time.Duration) (*Msg, error) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if mb := ep.members; mb != nil && !mb.IsAlive(src) {
			mRankdownErrors.Inc()
			return nil, &core.ErrRankDown{Rank: src, Epoch: mb.Epoch()}
		}
		_, m, again, err := recvPoll(ep.link, src, deadline, ep.members != nil)
		switch {
		case again:
		case errors.Is(err, ErrTimeout):
			mEndpointStalls.Inc()
			return nil, ErrStalled
		default:
			return m, err
		}
	}
}

// simpleOutSection encodes the handler-produced simple out values in spec
// order; nil when there are none.
func simpleOutSection(m *sidl.Method, out *Outgoing) []byte {
	var e wire.Encoder
	n := 0
	for _, pr := range m.Params {
		if v, ok := out.SimpleOut[pr.Name]; ok && !pr.Parallel && pr.Mode != sidl.In {
			e.PutString(pr.Name)
			e.PutValue(v)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return append(binary.AppendUvarint(nil, uint64(n)), e.Bytes()...)
}

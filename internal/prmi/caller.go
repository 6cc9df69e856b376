package prmi

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/sidl"
	"mxn/internal/wire"
)

// DeliveryMode selects when a collective invocation leaves the caller
// (Section 2.4 / Figure 5 of the paper).
type DeliveryMode int

// Delivery modes.
const (
	// Eager delivers each rank's invocation as soon as that rank reaches
	// the call. Consecutive collective calls from different but
	// intersecting participant sets can deadlock the callee.
	Eager DeliveryMode = iota
	// BarrierDelayed inserts a barrier among the participants before
	// delivery — the DCA solution: the callee never sees an invocation
	// until every participant has reached the calling point.
	BarrierDelayed
)

// String names the mode.
func (m DeliveryMode) String() string {
	if m == BarrierDelayed {
		return "barrier-delayed"
	}
	return "eager"
}

// Participation declares which caller cohort ranks take part in a
// collective invocation — the role DCA gives the trailing MPI_Comm
// argument its stub generator adds to every port method.
type Participation struct {
	// Ranks are the participating caller cohort ranks.
	Ranks []int
	// Group is a communicator over exactly Ranks, used for the delivery
	// barrier. Required in BarrierDelayed mode; ignored in Eager mode.
	Group *comm.Comm
}

// FullParticipation declares that every rank of the caller cohort
// participates, with the cohort communicator as the barrier group. The
// rank list is shared and read-only.
func FullParticipation(cohort *comm.Comm) Participation {
	return Participation{Ranks: identityRanks(cohort.Size()), Group: cohort}
}

// identity holds 0..n-1 for the largest n asked so far; every shorter
// list is a prefix of it, so full participation allocates nothing per call.
var identity atomic.Pointer[[]int]

func identityRanks(n int) []int {
	if s := identity.Load(); s != nil && len(*s) >= n {
		return (*s)[:n:n]
	}
	s := make([]int, max(n, 64))
	for i := range s {
		s[i] = i
	}
	identity.Store(&s)
	return s[:n:n]
}

// ParallelData is a caller-side parallel argument: the rank's fragment of
// an array decomposed over the participants according to Template. For
// out parameters Local is the buffer the returned data lands in. A
// deferred argument (built with ParallelRef) is passed by reference and
// pulled by the callee after it specifies its layout.
type ParallelData struct {
	Template *dad.Template
	Local    []float64

	deferred bool
}

// Arg is one named argument of an invocation. Exactly one of Value
// (simple) or Par (parallel) is set, matching the parameter's declaration.
type Arg struct {
	Name  string
	Value any
	Par   *ParallelData
}

// Simple builds a simple argument.
func Simple(name string, v any) Arg { return Arg{Name: name, Value: v} }

// Parallel builds a parallel argument.
func Parallel(name string, t *dad.Template, local []float64) Arg {
	return Arg{Name: name, Par: &ParallelData{Template: t, Local: local}}
}

// Result is what a non-oneway invocation returns. SimpleOut is nil when
// the method produced no simple out values.
type Result struct {
	Return    any
	SimpleOut map[string]any
}

// CallerPort is one caller rank's handle on a remote parallel port. It is
// the uses-port proxy a distributed framework hands out in place of the
// provider object a direct-connected framework would return.
//
// A CallerPort serves one invocation at a time per rank; methods are safe
// for use from the owning rank's goroutine.
type CallerPort struct {
	iface   *sidl.Interface
	link    Link
	rank    int // caller cohort rank
	nCallee int
	mode    DeliveryMode

	scheds  *schedule.Cache
	layouts map[string]*dad.Template // method\x00param -> callee-side template
	plans   []*plan                  // see planFor
	stash   map[stashKey]*stashEntry // referenced buffers of in-flight calls
	tcache  map[string]*dad.Template // callee layouts arriving in pull requests
	seq     uint64
	timeout time.Duration // per-reply wait; zero blocks
	mu      sync.Mutex

	// Per-call scratch, reused from call to call: the head and
	// simple-section encoders, the bound parallel arguments, and one reply
	// slot per callee rank (filled by collect, emptied by releaseReplies).
	enc, senc wire.Encoder
	par       []*ParallelData
	replies   []reply

	// members, when set, is a liveness view over the callee cohort: calls
	// are epoch-stamped and calls to ranks marked down fail fast with
	// *core.ErrRankDown.
	members *core.Membership
}

// NewCallerPort builds a caller-side port proxy. iface describes the
// port's methods; link reaches the callee cohort of nCallee ranks; rank is
// this caller's cohort rank.
func NewCallerPort(iface *sidl.Interface, link Link, rank, nCallee int, mode DeliveryMode) *CallerPort {
	return &CallerPort{
		iface:   iface,
		link:    link,
		rank:    rank,
		nCallee: nCallee,
		mode:    mode,
		scheds:  schedule.NewCache(),
		layouts: map[string]*dad.Template{},
		stash:   map[stashKey]*stashEntry{},
		tcache:  map[string]*dad.Template{},
		replies: make([]reply, nCallee),
	}
}

// SetMembership installs a liveness view over the callee cohort. With a
// membership set, outgoing calls are stamped with the current epoch (so
// endpoints behind a membership change reject them as stale), and calls to
// a callee marked down fail fast with *core.ErrRankDown instead of
// waiting out the timeout.
func (p *CallerPort) SetMembership(m *core.Membership) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.members = m
}

// epochNow samples the membership epoch for stamping; zero = unstamped.
func (p *CallerPort) epochNow() uint64 {
	if p.members == nil {
		return 0
	}
	return p.members.Epoch()
}

// SetTimeout bounds how long a call waits for each reply it expects; on
// expiry the call fails with ErrTimeout. Zero (the default) blocks, the
// paper's semantics. A call is sent once whatever the timeout: whether to
// invoke again after a timeout — the call may have run — is the
// application's decision. Over a session.Conn nothing is lost on the way,
// so a timeout there means a slow callee, not a lost call.
func (p *CallerPort) SetTimeout(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.timeout = d
}

// SetCalleeLayout registers the callee-side distribution of a parallel
// parameter, which the caller needs to compute redistribution schedules.
// This mirrors the paper's first strategy for callee layouts: the layout
// is specified through a framework service before any call is received.
// ApplyLayouts installs the same information from an Endpoint's
// EncodeLayouts message.
func (p *CallerPort) SetCalleeLayout(method, param string, t *dad.Template) error {
	m, ok := p.iface.Method(method)
	if !ok {
		return fmt.Errorf("prmi: no method %q", method)
	}
	if pr, ok := paramNamed(m, param); !ok || !pr.Parallel {
		return fmt.Errorf("prmi: %s has no parallel parameter %q", method, param)
	}
	p.layouts[method+"\x00"+param] = t
	p.plans = nil // planned against the previous layout
	return nil
}

// ApplyLayouts installs callee layouts from an Endpoint.EncodeLayouts
// message — the connect-time half of the layout negotiation.
func (p *CallerPort) ApplyLayouts(data []byte) error {
	d := wire.NewDecoder(data)
	n := d.Uvarint()
	for i := uint64(0); i < n; i++ {
		method := d.String()
		param := d.String()
		t, err := dad.DecodeTemplate(d)
		if err != nil {
			return err
		}
		if err := p.SetCalleeLayout(method, param, t); err != nil {
			return err
		}
	}
	return d.Err()
}

// Close tells the callee cohort this caller rank is done. Every caller
// rank must Close for the endpoints' Serve loops to return.
func (p *CallerPort) Close() error { return p.broadcast(msgShutdown) }

// broadcast sends a bare message of the given kind to every callee rank.
func (p *CallerPort) broadcast(kind byte) error {
	for j := 0; j < p.nCallee; j++ {
		if err := p.link.Send(j, newMsg([]byte{kind}, nil)); err != nil {
			return err
		}
	}
	return nil
}

// Depart announces that this caller rank is leaving the cohort — the
// PRMI half of an online shrink. Unlike Close it also tells every callee
// to drop this caller's deferred queue: links are FIFO, so by the time
// the detach is dispatched every call this rank ever issued has been
// serviced. The port must not be used after Depart; the endpoints' Serve
// loops keep running for the remaining callers.
func (p *CallerPort) Depart() error { return p.broadcast(msgDetach) }

// CallIndependent performs a one-to-one invocation of an independent
// method on callee rank target (Damevski's non-collective invocation).
// For oneway methods the result is nil and the call returns immediately.
func (p *CallerPort) CallIndependent(target int, method string, args ...Arg) (*Result, error) {
	m, ok := p.iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("prmi: no method %q", method)
	}
	if m.Invocation != sidl.Independent {
		return nil, fmt.Errorf("prmi: %s is collective; use CallCollective", method)
	}
	if target < 0 || target >= p.nCallee {
		return nil, fmt.Errorf("prmi: callee rank %d outside cohort of %d", target, p.nCallee)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, err := p.planFor(m, false, nil, args)
	if err != nil {
		return nil, err
	}

	if mb := p.members; mb != nil && !mb.IsAlive(target) {
		mRankdownErrors.Inc()
		return nil, &core.ErrRankDown{Rank: target, Epoch: mb.Epoch()}
	}
	mCallsIndependent.Inc()
	if m.OneWay {
		mCallsOneway.Inc()
	}
	callStart := time.Now()
	defer mCallNS.ObserveSince(callStart)
	defer p.releaseReplies()
	p.seq++
	if err := p.link.Send(target, p.callMsg(pl, target)); err != nil || m.OneWay {
		return nil, err
	}
	want := [1]int{target}
	if err := p.collect(p.seq, want[:]); err != nil {
		return nil, err
	}
	return replyToResult(m, &p.replies[target])
}

// CallCollective performs an all-to-all collective invocation: every rank
// in part.Ranks must call with equal simple arguments and with parallel
// fragments decomposed over the participants. Every callee rank receives
// the logical invocation (ghost invocations when the callee cohort is
// wider than the participant set) and every participant receives a return
// (ghost returns when it is narrower).
//
// The call consumes a reply from every callee it expects one from before
// it returns, error or not, so a failure on some callee ranks leaves no
// message behind; the error reported is that of the lowest such rank.
func (p *CallerPort) CallCollective(method string, part Participation, args ...Arg) (res *Result, err error) {
	m, ok := p.iface.Method(method)
	if !ok {
		return nil, fmt.Errorf("prmi: no method %q", method)
	}
	if m.Invocation != sidl.Collective {
		return nil, fmt.Errorf("prmi: %s is independent; use CallIndependent", method)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pl, err := p.planFor(m, true, part.Ranks, args)
	if err != nil {
		return nil, err
	}
	for i := range pl.params {
		pp, data := &pl.params[i], p.par[i]
		if want := pp.tpl.LocalCount(pl.pos); len(data.Local) != want {
			return nil, fmt.Errorf("prmi: %s(%s): fragment has %d elements, template says %d for participant %d",
				method, pp.spec.Name, len(data.Local), want, pl.pos)
		}
	}

	// The DCA synchronization rule: delay delivery until every participant
	// has reached the calling point.
	if p.mode == BarrierDelayed {
		if part.Group == nil {
			return nil, fmt.Errorf("prmi: barrier-delayed delivery needs a participation communicator")
		}
		part.Group.Barrier()
	}

	p.seq++
	mCallsCollective.Inc()
	if m.OneWay {
		mCallsOneway.Inc()
	}
	callStart := time.Now()
	defer mCallNS.ObserveSince(callStart)

	// Deferred (by-reference) arguments send no data: they are stashed
	// locally and served on pull while this call waits for its replies.
	for i := range pl.params {
		if pp := &pl.params[i]; pp.deferred {
			p.stash[stashKey{p.seq, pp.spec.Name}] = &stashEntry{tpl: pp.tpl, local: p.par[i].Local, pos: pl.pos}
		}
	}
	defer func() {
		for i := range pl.params {
			if pp := &pl.params[i]; pp.deferred {
				delete(p.stash, stashKey{p.seq, pp.spec.Name})
			}
		}
		p.releaseReplies()
		if err != nil {
			// The callee may not have kept a template sent with a call
			// that failed; send the encodings again next time.
			clear(pl.encSent)
		}
	}()

	err = sendAll(p.link, func() error {
		for j := 0; j < p.nCallee; j++ {
			if err := p.link.Send(j, p.callMsg(pl, j)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if m.OneWay {
		return nil, nil
	}
	if err := p.collect(p.seq, pl.peers); err != nil {
		return nil, err
	}
	for _, j := range pl.peers {
		if rep := &p.replies[j]; rep.errText != "" {
			return nil, fmt.Errorf("prmi: %s on callee rank %d: %s", method, j, rep.errText)
		}
	}

	// Unpack returned parallel data straight from each reply's payload
	// into the caller's buffers.
	for _, j := range pl.peers {
		rep := p.replies[j].msg
		if want := payloadBytes(pl.params, j, false); len(rep.payload) != want {
			return nil, fmt.Errorf("prmi: %s: callee %d returned %d bytes of parallel data, schedules say %d", method, j, len(rep.payload), want)
		}
		unpack(pl.params, j, rep, func(i int) []float64 { return p.par[i].Local })
	}
	return replyToResult(m, &p.replies[pl.pos%p.nCallee])
}

// callMsg builds this call's message for callee j under sequence p.seq:
// the head around the plan's constant key, and one payload holding the
// fragment of every parallel in/inout argument packed for j.
func (p *CallerPort) callMsg(pl *plan, j int) *Msg {
	putCallHead(&p.enc, p.seq, p.epochNow(), pl.key)
	for i := range pl.params {
		pp := &pl.params[i]
		// The template encoding rides only the first message to each
		// callee; after that its key (in the plan key) is enough.
		if pl.encSent[j] {
			p.enc.PutBytes(nil)
		} else {
			p.enc.PutBytes(pp.enc)
		}
		n := 0
		if pp.send != nil {
			n = pp.send[j].Elems
		}
		p.enc.PutUvarint(uint64(8 * n))
	}
	pl.encSent[j] = true
	p.enc.PutBytes(p.senc.Bytes())
	return newMsg(p.enc.Bytes(), pack(pl.params, j, func(i int) []float64 { return p.par[i].Local }))
}

// bindArgs validates args against m, encodes the simple in/inout
// arguments into p.senc in parameter order and, for collective calls,
// collects the parallel arguments into p.par.
func (p *CallerPort) bindArgs(m *sidl.Method, args []Arg, collective bool) error {
	for i, a := range args {
		if _, ok := paramNamed(m, a.Name); !ok {
			return fmt.Errorf("prmi: %s has no parameter %q", m.Name, a.Name)
		}
		for _, b := range args[:i] {
			if b.Name == a.Name {
				return fmt.Errorf("prmi: duplicate argument %q", a.Name)
			}
		}
	}
	p.par = p.par[:0]
	p.senc.Reset()
	nSimple := 0
	for _, pr := range m.Params {
		if !pr.Parallel && pr.Mode != sidl.Out {
			nSimple++
		}
	}
	p.senc.PutUvarint(uint64(nSimple))
	for _, pr := range m.Params {
		var a *Arg
		for i := range args {
			if args[i].Name == pr.Name {
				a = &args[i]
			}
		}
		switch {
		case pr.Parallel && a != nil && a.Par == nil:
			return fmt.Errorf("prmi: parameter %q is parallel; pass Parallel(...)", pr.Name)
		case pr.Parallel && !collective:
			// Independent calls transfer no parallel data.
		case pr.Parallel && pr.Type != sidl.DoubleArray:
			return fmt.Errorf("prmi: parallel parameter %q has type %s; the runtime moves array<double> only", pr.Name, pr.Type)
		case pr.Parallel && a == nil:
			return fmt.Errorf("prmi: missing parallel argument %q", pr.Name)
		case pr.Parallel && a.Par.Template == nil:
			return fmt.Errorf("prmi: parallel argument %q needs a template", pr.Name)
		case pr.Parallel:
			p.par = append(p.par, a.Par)
		case pr.Mode == sidl.Out:
			// Out simple values come back in the result; nothing to send.
		case a == nil:
			return fmt.Errorf("prmi: missing argument %q", pr.Name)
		case a.Par != nil:
			return fmt.Errorf("prmi: parameter %q is simple; pass Simple(...)", pr.Name)
		default:
			p.senc.PutString(pr.Name)
			p.senc.PutValue(a.Value)
		}
	}
	return nil
}

// releaseReplies returns every reply collect filed.
func (p *CallerPort) releaseReplies() {
	for j := range p.replies {
		p.replies[j].msg.Release()
		p.replies[j] = reply{}
	}
}

// collect receives until the reply with sequence number seq from every
// callee rank in want is filed in p.replies, serving pull requests for
// referenced arguments along the way (the caller is the data server while
// its deferred call is in flight). Replies carrying a different sequence
// number are stale — late answers to an earlier call that timed out — and
// are silently discarded, as are replies nobody waits for. A set timeout
// bounds the wait for each next reply; expiry reports ErrTimeout.
func (p *CallerPort) collect(seq uint64, want []int) error {
	deadline := time.Time{}
	for missing := len(want); missing > 0; {
		if p.timeout > 0 && deadline.IsZero() {
			deadline = time.Now().Add(p.timeout)
		}
		// With a liveness view installed, a wait on a callee marked down
		// fails fast — its reply is never coming.
		for _, j := range want {
			if mb := p.members; mb != nil && p.replies[j].msg == nil && !mb.IsAlive(j) {
				mRankdownErrors.Inc()
				return &core.ErrRankDown{Rank: j, Epoch: mb.Epoch()}
			}
		}
		from, m, again, err := recvPoll(p.link, deadline, p.members != nil)
		if again {
			continue
		}
		if errors.Is(err, ErrTimeout) {
			mTimeouts.Inc()
			return fmt.Errorf("%w: no reply from %d of callees %v within %v", err, missing, want, p.timeout)
		} else if err != nil {
			return err
		}
		switch kind := m.kind(); kind {
		case msgPull:
			err := p.servePull(m)
			m.Release()
			if err != nil {
				return err
			}
		case msgReply:
			var rep reply
			if err := decodeReply(m, &rep); err != nil || from < 0 || from >= p.nCallee {
				m.Release()
				return fmt.Errorf("prmi: corrupt reply from callee %d: %w", from, wire.ErrCorrupt)
			}
			if rep.seq != seq || p.replies[from].msg != nil || !slices.Contains(want, from) {
				mStaleDropped.Inc()
				m.Release()
				continue
			}
			p.replies[from] = rep
			missing--
			deadline = time.Time{}
		default:
			m.Release()
			return fmt.Errorf("prmi: caller received unexpected message kind %d", kind)
		}
	}
	return nil
}

// replyToResult converts a reply into the caller-facing result, checking
// the handler error.
func replyToResult(m *sidl.Method, rep *reply) (*Result, error) {
	if rep.errText != "" {
		return nil, fmt.Errorf("prmi: %s: %s", m.Name, rep.errText)
	}
	out, err := getSimple(rep.simpleOut, m)
	if err != nil {
		return nil, fmt.Errorf("prmi: %s: corrupt simple-out values: %w", m.Name, err)
	}
	return &Result{Return: rep.ret, SimpleOut: out}, nil
}

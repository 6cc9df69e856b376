package dca

import (
	"fmt"
	"sort"
	"time"

	"mxn/internal/cca"
	"mxn/internal/comm"
	"mxn/internal/core"
)

// World-comm tags of the DCA protocol.
const (
	tagCall = iota + 1
	tagReply
	tagShut
)

// callMsg is one caller rank's invocation to one provider rank, an
// in-memory value: DCA's wire format is MPI's (here comm's) native one.
type callMsg struct {
	method       string
	fromWorld    int
	participants []int // world ranks, ascending
	simple       []any
	chunk        []float64
	oneway       bool
}

type replyMsg struct {
	ret     []any
	chunk   []float64
	errText string
}

type shutMsg struct{}

// Services is one cohort rank's handle on the framework: CCA services
// plus the generated-stub call path.
type Services struct {
	fw       *Framework
	c        *cca.Cohort
	rank     int
	handlers map[string]Handler // "port\x00method"
}

// Rank returns the caller's cohort rank.
func (s *Services) Rank() int { return s.rank }

// CohortSize returns the component's cohort width.
func (s *Services) CohortSize() int { return len(s.c.Ranks) }

// Cohort returns the intra-component communicator.
func (s *Services) Cohort() *comm.Comm { return s.c.Comms[s.rank] }

// WorldRank returns this rank's world rank.
func (s *Services) WorldRank() int { return s.c.Ranks[s.rank] }

// world returns this rank's world-spanning communicator handle.
func (s *Services) world() *comm.Comm { return s.fw.all[s.WorldRank()] }

// Provide registers this rank's handler for a provides-port method.
// Every cohort rank registers its own instance before calling Serve.
func (s *Services) Provide(port, method string, h Handler) error {
	key := port + "\x00" + method
	if _, dup := s.handlers[key]; dup {
		return fmt.Errorf("dca: %s.%s already provided on rank %d", port, method, s.rank)
	}
	s.handlers[key] = h
	return nil
}

// Call invokes a method on the connected provider port. part is the
// participation communicator — the extra argument DCA's stub generator
// adds to every port method: exactly its member processes take part, and
// the delivery barrier runs over it. simple values must be equal on all
// participants. sendChunks[j] is the data chunk for provider rank j
// (alltoallv style); it may be nil when the method moves no parallel
// data. The returned recvChunks[j] is provider rank j's reply chunk.
func (s *Services) Call(usesPort, method string, part *comm.Comm, simple []any, sendChunks [][]float64) (ret []any, recvChunks [][]float64, err error) {
	conn, err := s.fw.reg.ConnOf(s.c, false, usesPort)
	if err != nil {
		return nil, nil, err
	}
	prov := conn.Provider
	if sendChunks != nil && len(sendChunks) != len(prov.Ranks) {
		return nil, nil, fmt.Errorf("dca: %d send chunks for provider of %d ranks", len(sendChunks), len(prov.Ranks))
	}
	if part == nil {
		return nil, nil, fmt.Errorf("dca: participation communicator is required (it defines the scope of the call)")
	}

	// Translate the participation communicator to world ranks, then apply
	// the DCA rule: a barrier over the participants before delivery.
	worldRanks := make([]int, part.Size())
	for i, v := range part.Allgather(part.WorldRank()) {
		worldRanks[i] = v.(int)
	}
	sort.Ints(worldRanks)
	part.Barrier()

	key := conn.ProvPort + "\x00" + method
	s.fw.mu.Lock()
	oneway := s.fw.oneway[prov.Name+"/"+key]
	s.fw.mu.Unlock()
	w := s.world()
	for j, wr := range prov.Ranks {
		msg := &callMsg{method: key, fromWorld: w.Rank(), participants: worldRanks, simple: simple, oneway: oneway}
		if sendChunks != nil {
			msg.chunk = sendChunks[j]
		}
		w.Send(wr, tagCall, msg)
	}
	if oneway {
		return nil, nil, nil
	}
	// Take every provider rank's reply, even after one reports an error,
	// so that none is left over to be read as the next call's.
	var callErr error
	recvChunks = make([][]float64, len(prov.Ranks))
	for j := range prov.Ranks {
		rep, err := awaitReply(w, prov, j)
		if err != nil {
			return nil, nil, err
		}
		if rep.errText != "" && callErr == nil {
			callErr = fmt.Errorf("dca: %s.%s: %s", usesPort, method, rep.errText)
		}
		recvChunks[j] = rep.chunk
		if j == 0 {
			ret = rep.ret
		}
	}
	if callErr != nil {
		return nil, nil, callErr
	}
	return ret, recvChunks, nil
}

// livenessPoll bounds each receive of a reply.
const livenessPoll = 5 * time.Millisecond

// awaitReply waits for provider rank j's reply. Once the registry has
// marked the rank Gone (its body returned), the wait fails with
// *core.ErrRankDown; the last receive starts after the rank was seen
// gone, so a reply it sent before it exited is still found.
func awaitReply(w *comm.Comm, prov *cca.Cohort, j int) (*replyMsg, error) {
	for {
		gone := !prov.Gone.IsAlive(j)
		payload, _, ok := w.RecvTimeout(prov.Ranks[j], tagReply, livenessPoll)
		switch {
		case ok:
			if rep, isReply := payload.(*replyMsg); isReply {
				return rep, nil
			}
			return nil, fmt.Errorf("dca: caller received %T", payload)
		case gone:
			return nil, &core.ErrRankDown{Rank: j, Epoch: prov.Gone.Epoch()}
		}
	}
}

// Serve processes incoming invocations on this provider rank until every
// rank of every connected user component has shut down (the framework
// signals it when a user's Go body returns). All provider ranks take part
// in every collective call — the DCA callee rule.
func (s *Services) Serve() error {
	w := s.world()
	expected := s.fw.expectedShutdowns(s.c)
	got := 0
	for got < expected {
		payload, src := w.Recv(comm.AnySource, comm.AnyTag)
		switch msg := payload.(type) {
		case shutMsg:
			got++
		case *callMsg:
			if err := s.serveCall(w, msg); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dca: provider received %T from %d", payload, src)
		}
	}
	return nil
}

// serveCall collects one collective invocation and runs the handler.
func (s *Services) serveCall(w *comm.Comm, first *callMsg) error {
	chunks := make([][]float64, len(first.participants))
	for k, p := range first.participants {
		msg := first
		if p != first.fromWorld {
			payload, _ := w.Recv(p, tagCall)
			var ok bool
			if msg, ok = payload.(*callMsg); !ok {
				return fmt.Errorf("dca: provider received %T during collection", payload)
			}
			if msg.method != first.method {
				return fmt.Errorf("dca: invocation order violation: committed to %q, caller %d sent %q (the delivery barrier should make this impossible)",
					first.method, p, msg.method)
			}
		}
		chunks[k] = msg.chunk
	}

	var ret []any
	var reply [][]float64
	var herr error
	if h := s.handlers[first.method]; h == nil {
		herr = fmt.Errorf("no handler for %q on rank %d", first.method, s.rank)
	} else if ret, reply, herr = h(s.rank, first.simple, chunks); herr == nil && reply != nil && len(reply) != len(first.participants) {
		herr = fmt.Errorf("handler returned %d reply chunks for %d participants", len(reply), len(first.participants))
	}
	if first.oneway {
		return nil
	}
	for k, p := range first.participants {
		rep := &replyMsg{ret: ret}
		if herr != nil {
			rep = &replyMsg{errText: herr.Error()}
		} else if reply != nil {
			rep.chunk = reply[k]
		}
		w.Send(p, tagReply, rep)
	}
	return nil
}

// expectedShutdowns counts the shutdown notices a provider must receive
// before Serve returns: one per user rank and connection.
func (f *Framework) expectedShutdowns(prov *cca.Cohort) int {
	total := 0
	for _, k := range f.reg.Conns() {
		if k.Provider == prov {
			total += len(k.User.Ranks)
		}
	}
	return total
}

// sendShutdowns tells every provider rank on the other end of a user
// component's connections that one of the user's ranks has terminated.
func (f *Framework) sendShutdowns(user *cca.Cohort, rank int) {
	w := f.all[user.Ranks[rank]]
	for _, k := range f.reg.Conns() {
		if k.User == user {
			for _, wr := range k.Provider.Ranks {
				w.Send(wr, tagShut, shutMsg{})
			}
		}
	}
}

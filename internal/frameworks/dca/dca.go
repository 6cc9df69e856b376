// Package dca reimplements the Distributed CCA Architecture framework the
// paper describes in Section 4.3: a parallel and distributed
// CCA-compliant framework built directly on MPI-style primitives.
//
// DCA's distinguishing choices, all reproduced here:
//
//   - Process participation is decided by the application on the calling
//     side through a communicator passed (by the generated stub) as an
//     extra argument to every port method; on the callee side all
//     processes participate.
//   - Parallel data redistribution follows the MPI all-to-all model: the
//     user describes the layout by supplying one chunk per destination
//     rank (the Go-idiomatic equivalent of MPI datatypes plus count and
//     displacement arrays — slices carry their counts). The framework
//     moves the chunks; interpreting them is the user's job. This is
//     flexible and familiar to MPI users, and exactly as low-level as the
//     paper says: more responsibility on the user than a DAD.
//   - A barrier over the participation communicator precedes every
//     delivery, which is DCA's answer to the Figure 5 synchronization
//     problem (the prmi package demonstrates the failure mode this
//     avoids).
//   - All Go ports start concurrently at startup, and one-way methods
//     provide component concurrency.
package dca

import (
	"slices"
	"sync"

	"mxn/internal/cca"
	"mxn/internal/comm"
)

// Handler services one method on one provider rank. simple holds the
// replicated simple arguments; chunks[k] is the data chunk sent by the
// k-th participant (alltoallv semantics). It returns the replicated
// return values and reply[k], the chunk sent back to the k-th
// participant. For one-way methods the returns are ignored.
type Handler func(rank int, simple []any, chunks [][]float64) (ret []any, reply [][]float64, err error)

// GoComponent is a component body started at framework launch, one per
// rank of its cohort (DCA starts every Go port concurrently).
type GoComponent interface {
	Go(svc *Services) error
}

// GoFunc adapts a function to GoComponent.
type GoFunc func(svc *Services) error

// Go implements GoComponent.
func (f GoFunc) Go(svc *Services) error { return f(svc) }

// Framework is a DCA instance: a cca.Registry of component cohorts and
// connections over one world of processes.
type Framework struct {
	reg *cca.Registry
	all []*comm.Comm // world-spanning handles, which carry the DCA protocol

	mu     sync.Mutex
	oneway map[string]bool // "provider/port\x00method"
}

// New creates a framework over worldSize processes.
func New(worldSize int) *Framework {
	reg := cca.NewRegistry(worldSize)
	return &Framework{reg: reg, all: reg.World().Comms(), oneway: map[string]bool{}}
}

// AddComponent places a component cohort on the given world ranks, in
// ascending order. factory is invoked once per cohort rank at launch; when
// a rank's body returns, the framework sends its shutdown notices, so that
// provider Serve loops can drain and return.
func (f *Framework) AddComponent(name string, worldRanks []int, factory func(rank int) GoComponent) error {
	ranks := slices.Clone(worldRanks)
	slices.Sort(ranks)
	_, err := f.reg.Place(name, ranks, func(c *cca.Cohort, rank int) error {
		defer f.sendShutdowns(c, rank)
		return factory(rank).Go(&Services{fw: f, c: c, rank: rank, handlers: map[string]Handler{}})
	})
	return err
}

// DeclareOneWay marks a provider method as one-way. In DCA this property
// comes from the SIDL declaration at stub-generation time, so here it is
// framework configuration, set before Run: callers consult it to skip
// waiting for replies.
func (f *Framework) DeclareOneWay(provider, port, method string) error {
	if _, err := f.reg.Cohort(provider); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.oneway[provider+"/"+port+"\x00"+method] = true
	return nil
}

// Connect wires component user's uses port to component provider's
// provides port. DCA ports are untyped and declared by connecting; a port
// already declared stays, and an unknown component fails in Connect.
func (f *Framework) Connect(user, usesPort, provider, provPort string) error {
	_ = f.reg.Declare(user, false, usesPort, "")
	_ = f.reg.Declare(provider, true, provPort, "")
	return f.reg.Connect(user, usesPort, provider, provPort)
}

// Run launches every component's Go body concurrently on every cohort
// rank (the DCA startup rule) and returns the first error after all
// terminate. Providers typically register handlers and call Serve;
// callers return when done, which shuts their outgoing ports down.
func (f *Framework) Run() error { return f.reg.Run() }

// Package cca implements the component model of the Common Component
// Architecture as the paper describes it (Section 2.1): components
// instantiated as cohorts across a set of parallel processes, uses/provides
// ports connected by a framework, and Go ports launched concurrently at
// startup.
//
// Registry is the model's one implementation. The direct-connected
// framework here is a policy over it, in which all components of one
// process share an address space and a port invocation is "a refined form
// of library call": GetPort hands the user the provider's port object
// itself. The distributed frameworks in internal/frameworks, whose ports
// become parallel remote method invocations, are policies over it too.
package cca

import (
	"fmt"
	"sync"

	"mxn/internal/comm"
)

// PortType labels the interface a port carries. Connections require equal
// port types on both ends; this stands in for SIDL interface types.
type PortType string

// Component is the unit of composition. SetServices is called once per
// cohort instance at instantiation, mirroring the CCA setServices call:
// the component registers its provides and uses ports there.
type Component interface {
	SetServices(svc Services) error
}

// GoPort is the component equivalent of a main function: frameworks start
// every provided go port concurrently when the application is launched
// (the DCA behaviour the paper describes in Section 4.3).
type GoPort interface {
	Go() error
}

// GoPortType is the conventional type label for Go ports.
const GoPortType PortType = "cca.GoPort"

// Services is each cohort instance's handle on its framework, passed to
// SetServices.
type Services interface {
	// AddProvidesPort publishes a port object under a name and type.
	AddProvidesPort(name string, typ PortType, port any) error
	// RegisterUsesPort declares a connection end point this component will
	// later resolve with GetPort.
	RegisterUsesPort(name string, typ PortType) error
	// GetPort resolves a registered uses port to the connected provider's
	// port object. In a direct-connected framework the returned value is
	// the provider instance's object itself, co-located in this process.
	GetPort(name string) (any, error)
	// Rank returns this instance's rank within its cohort.
	Rank() int
	// CohortSize returns the number of instances in the cohort.
	CohortSize() int
	// Cohort returns the intra-cohort communicator — the out-of-band
	// channel (the paper's "e.g. using MPI") for interactions among the
	// cohort that do not go through ports.
	Cohort() *comm.Comm
}

// DirectFramework is a direct-connected CCA framework: every component is
// a cohort over the same np processes, one instance per process, and port
// invocations stay in-process.
type DirectFramework struct {
	reg   *Registry
	ranks []int // 0..np-1, the ranks of every cohort

	mu   sync.Mutex
	svcs map[string][]*services // per component, per rank
}

// NewDirectFramework creates a framework whose components will run as
// cohorts of np parallel processes.
func NewDirectFramework(np int) *DirectFramework {
	f := &DirectFramework{reg: NewRegistry(np), ranks: make([]int, np), svcs: map[string][]*services{}}
	f.reg.shared = true
	for r := range f.ranks {
		f.ranks[r] = r
	}
	return f
}

// NumProcs returns the framework's cohort width.
func (f *DirectFramework) NumProcs() int { return len(f.ranks) }

// AddComponent instantiates a component cohort: factory is called once per
// rank and each instance immediately receives SetServices. The factory
// runs on the caller's goroutine; components needing rank-parallel setup
// do it in their Go port.
func (f *DirectFramework) AddComponent(name string, factory func(rank int) Component) error {
	svcs := make([]*services, len(f.ranks))
	c, err := f.reg.Place(name, f.ranks, func(_ *Cohort, rank int) error { return svcs[rank].goAll() })
	if err != nil {
		return err
	}
	for r := range svcs {
		svcs[r] = &services{f: f, c: c, rank: r, ports: map[string]any{}}
		if err := factory(r).SetServices(svcs[r]); err != nil {
			f.reg.mu.Lock()
			delete(f.reg.cohorts, name)
			f.reg.mu.Unlock()
			return fmt.Errorf("cca: %s rank %d setServices: %w", name, r, err)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.svcs[name] = svcs
	return nil
}

// Connect attaches component user's uses port to component provider's
// provides port, for every rank of the cohorts. Port types must match.
func (f *DirectFramework) Connect(user, usesPort, provider, providesPort string) error {
	return f.reg.Connect(user, usesPort, provider, providesPort)
}

// Run launches the application: every provided Go port of every component
// starts concurrently on every rank, and Run returns once all have
// finished, reporting the first error.
func (f *DirectFramework) Run() error { return f.reg.Run() }

// services implements Services for a direct-connected framework.
type services struct {
	f       *DirectFramework
	c       *Cohort
	rank    int
	ports   map[string]any // this instance's provides ports, guarded by f.mu
	goPorts []GoPort
}

// goAll is a rank's body: every Go port of its instance, started at once.
func (s *services) goAll() error {
	errs := make(chan error, len(s.goPorts))
	for _, gp := range s.goPorts {
		go func() { errs <- gp.Go() }()
	}
	var first error
	for range s.goPorts {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

func (s *services) AddProvidesPort(name string, typ PortType, port any) error {
	if port == nil {
		return fmt.Errorf("cca: provides port %q is nil", name)
	}
	gp, isGo := port.(GoPort)
	if typ == GoPortType && !isGo {
		return fmt.Errorf("cca: port %q declared %q but does not implement GoPort", name, typ)
	}
	if err := s.declare(true, name, typ); err != nil {
		return err
	}
	if typ == GoPortType {
		s.goPorts = append(s.goPorts, gp)
	}
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	s.ports[name] = port
	return nil
}

func (s *services) RegisterUsesPort(name string, typ PortType) error {
	return s.declare(false, name, typ)
}

// declare records a port of the cohort. The instances of a component are
// alike: rank 0 declares the cohort's ports and every other rank repeats.
func (s *services) declare(provides bool, name string, typ PortType) error {
	if s.rank == 0 {
		return s.f.reg.Declare(s.c.Name, provides, name, typ)
	}
	if _, t, err := s.f.reg.Port(s.c.Name, provides, name); err != nil || t != typ {
		return fmt.Errorf("cca: %s rank %d declares port %q unlike rank 0", s.c.Name, s.rank, name)
	}
	return nil
}

func (s *services) GetPort(name string) (any, error) {
	k, err := s.f.reg.ConnOf(s.c, false, name)
	if err != nil {
		return nil, err
	}
	s.f.mu.Lock()
	defer s.f.mu.Unlock()
	if p, ok := s.f.svcs[k.Provider.Name][s.rank].ports[k.ProvPort]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("cca: %s rank %d provides no port %q", k.Provider.Name, s.rank, k.ProvPort)
}

func (s *services) Rank() int          { return s.rank }
func (s *services) CohortSize() int    { return len(s.c.Ranks) }
func (s *services) Cohort() *comm.Comm { return s.c.Comms[s.rank] }

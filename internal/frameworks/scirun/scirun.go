// Package scirun reimplements the SCIRun2 framework approach the paper
// surveys in Section 4.2: a distributed CCA framework whose parallel
// remote method invocation behavior is driven by the SIDL declaration of
// each port interface, the way SCIRun2 leverages its IDL compiler's code
// generation.
//
// Methods declared collective are all-to-all invocations with ghost
// invocations and ghost return values bridging unequal cohort sizes;
// independent methods have serial call semantics; distributed-array
// parameters declared parallel are redistributed automatically between
// the caller and callee decompositions. A run-time subsetting mechanism
// (prmi.Participation) changes the processes participating in a call when
// a component's needs change.
//
// The framework is a policy over cca.Registry: port types are SIDL
// interfaces, and each connection is a prmi.CallerPort/prmi.Endpoint pair
// over the connection's own communicator group; argument layouts are
// framework configuration announced before any call is received (the
// paper's "special framework service" strategy).
package scirun

import (
	"fmt"
	"sync"

	"mxn/internal/cca"
	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/sidl"
)

// Services is one cohort rank's handle on the framework.
type Services struct {
	fw   *Framework
	c    *cca.Cohort
	rank int

	mu          sync.Mutex
	callerPorts []*prmi.CallerPort
}

// Framework is a SCIRun2-style distributed framework instance over a
// world of processes partitioned among component cohorts.
type Framework struct {
	reg *cca.Registry

	// Delivery selects invocation delivery for all caller ports. SCIRun2
	// predates DCA's barrier rule, so the default is Eager with
	// fail-fast order checking on endpoints.
	Delivery prmi.DeliveryMode

	mu         sync.Mutex
	interfaces map[string]*sidl.Interface
	layouts    map[string][]layoutDecl // "provider/port"
}

type layoutDecl struct {
	method, param string
	tpl           *dad.Template
}

// New creates a framework over worldSize processes.
func New(worldSize int) *Framework {
	reg := cca.NewRegistry(worldSize)
	reg.Exclusive = true // each connection is one caller/callee PRMI pair
	return &Framework{reg: reg, interfaces: map[string]*sidl.Interface{}, layouts: map[string][]layoutDecl{}}
}

// DefineInterfaces parses SIDL source and registers every interface it
// declares — the stand-in for running the IDL compiler.
func (f *Framework) DefineInterfaces(src string) error {
	pkg, err := sidl.Parse(src)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range pkg.Interfaces {
		iface := &pkg.Interfaces[i]
		if _, dup := f.interfaces[iface.Name]; dup {
			return fmt.Errorf("scirun: interface %q already defined", iface.Name)
		}
		f.interfaces[iface.Name] = iface
	}
	return nil
}

// iface returns the interface a port type names, nil if none.
func (f *Framework) iface(typ cca.PortType) *sidl.Interface {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.interfaces[string(typ)]
}

// AddComponent places a component cohort on the given world ranks with a
// per-rank body started at launch. Caller ports created through GetPort
// are closed when their body returns.
func (f *Framework) AddComponent(name string, worldRanks []int, body func(svc *Services) error) error {
	_, err := f.reg.Place(name, worldRanks, func(c *cca.Cohort, rank int) error {
		svc := &Services{fw: f, c: c, rank: rank}
		defer svc.closePorts()
		return body(svc)
	})
	return err
}

// AddProvidesPort declares that a component provides a port of the named
// SIDL interface.
func (f *Framework) AddProvidesPort(component, port, ifaceName string) error {
	return f.declare(component, true, port, ifaceName)
}

// AddUsesPort declares a component's connection end point of the named
// SIDL interface.
func (f *Framework) AddUsesPort(component, port, ifaceName string) error {
	return f.declare(component, false, port, ifaceName)
}

func (f *Framework) declare(component string, provides bool, port, ifaceName string) error {
	if f.iface(cca.PortType(ifaceName)) == nil {
		return fmt.Errorf("scirun: no interface %q", ifaceName)
	}
	return f.reg.Declare(component, provides, port, cca.PortType(ifaceName))
}

// Connect wires a uses port to a provides port. Interfaces must match,
// and a provides port accepts exactly one connection (each connection is
// one caller/callee PRMI pair).
func (f *Framework) Connect(user, usesPort, provider, provPort string) error {
	return f.reg.Connect(user, usesPort, provider, provPort)
}

// SetArgLayout declares the callee-side distribution of a parallel
// parameter of a provides port method — framework configuration applied
// to both the endpoint and every connected caller before any call is
// received.
func (f *Framework) SetArgLayout(provider, port, method, param string, tpl *dad.Template) error {
	c, typ, err := f.reg.Port(provider, true, port)
	if err != nil {
		return err
	}
	iface := f.iface(typ)
	if _, ok := iface.Method(method); !ok {
		return fmt.Errorf("scirun: interface %s has no method %q", iface.Name, method)
	}
	if tpl.NumProcs() != len(c.Ranks) {
		return fmt.Errorf("scirun: layout spans %d ranks, %s has %d", tpl.NumProcs(), provider, len(c.Ranks))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := provider + "/" + port
	f.layouts[key] = append(f.layouts[key], layoutDecl{method, param, tpl})
	return nil
}

// layoutsOf returns the argument layouts declared for a connection's
// provides port.
func (f *Framework) layoutsOf(k *cca.Conn) []layoutDecl {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.layouts[k.Provider.Name+"/"+k.ProvPort]
}

// Run launches every component body concurrently on every cohort rank and
// returns the first error after all terminate.
func (f *Framework) Run() error { return f.reg.Run() }

// Rank returns this instance's cohort rank.
func (s *Services) Rank() int { return s.rank }

// CohortSize returns the component's cohort width.
func (s *Services) CohortSize() int { return len(s.c.Ranks) }

// Cohort returns the intra-component communicator.
func (s *Services) Cohort() *comm.Comm { return s.c.Comms[s.rank] }

// GetPort resolves a connected uses port to its PRMI caller proxy — the
// distributed analogue of the direct framework's library-call reference.
// Callee argument layouts declared through SetArgLayout are pre-applied,
// and the proxy watches the provider's exited ranks (cca.Cohort.Gone), so
// a call to one fails with *core.ErrRankDown.
func (s *Services) GetPort(usesPort string) (*prmi.CallerPort, error) {
	k, err := s.fw.reg.ConnOf(s.c, false, usesPort)
	if err != nil {
		return nil, err
	}
	link := prmi.NewCommLink(k.Group[s.rank], len(s.c.Ranks), 0)
	port := prmi.NewCallerPort(s.fw.iface(k.Type), link, s.rank, len(k.Provider.Ranks), s.fw.Delivery)
	port.SetMembership(k.Provider.Gone)
	for _, l := range s.fw.layoutsOf(k) {
		if err := port.SetCalleeLayout(l.method, l.param, l.tpl); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.callerPorts = append(s.callerPorts, port)
	s.mu.Unlock()
	return port, nil
}

// ProvidesPort builds this rank's PRMI endpoint for a connected provides
// port. Declared argument layouts are pre-registered; the body registers
// handlers and then calls Serve. The endpoint uses fail-fast order
// checking under eager delivery.
func (s *Services) ProvidesPort(port string) (*prmi.Endpoint, error) {
	k, err := s.fw.reg.ConnOf(s.c, true, port)
	if err != nil {
		return nil, err
	}
	nUser := len(k.User.Ranks)
	link := prmi.NewCommLink(k.Group[nUser+s.rank], 0, 0)
	ep := prmi.NewEndpoint(s.fw.iface(k.Type), link, s.rank, len(s.c.Ranks), nUser)
	ep.StrictMatching = true
	for _, l := range s.fw.layoutsOf(k) {
		if err := ep.RegisterArgLayout(l.method, l.param, l.tpl); err != nil {
			return nil, err
		}
	}
	return ep, nil
}

// closePorts shuts down every caller port this rank opened.
func (s *Services) closePorts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.callerPorts {
		_ = p.Close()
	}
}

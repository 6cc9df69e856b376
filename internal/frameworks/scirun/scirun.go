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
// The framework wires components' uses and provides ports to
// prmi.CallerPort/prmi.Endpoint pairs over per-connection links; argument
// layouts are framework configuration announced before any call is
// received (the paper's "special framework service" strategy).
package scirun

import (
	"fmt"
	"sync"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/sidl"
)

// Services is one cohort rank's handle on the framework.
type Services struct {
	fw    *Framework
	entry *componentEntry
	rank  int

	mu          sync.Mutex
	callerPorts []*prmi.CallerPort
}

// Framework is a SCIRun2-style distributed framework instance over a
// world of processes partitioned among component cohorts.
type Framework struct {
	world *comm.World

	// Delivery selects invocation delivery for all caller ports. SCIRun2
	// predates DCA's barrier rule, so the default is Eager with
	// fail-fast order checking on endpoints.
	Delivery prmi.DeliveryMode

	mu          sync.Mutex
	interfaces  map[string]*sidl.Interface
	components  map[string]*componentEntry
	connections map[string]*connection // "user/usesPort"
	rankOwner   map[int]string
	layouts     []layoutDecl
}

type componentEntry struct {
	name     string
	ranks    []int
	cohort   []*comm.Comm
	body     func(svc *Services) error
	provides map[string]*sidl.Interface // port name -> interface
	uses     map[string]*sidl.Interface
}

// connection is one caller/callee PRMI pair. Its group holds the user's
// ranks and then the provider's, so its traffic is a domain of its own.
type connection struct {
	user, usesPort, provider, provPort string
	group                              []*comm.Comm
}

type layoutDecl struct {
	provider, port, method, param string
	tpl                           *dad.Template
}

// New creates a framework over worldSize processes.
func New(worldSize int) *Framework {
	return &Framework{
		world:       comm.NewWorld(worldSize),
		interfaces:  map[string]*sidl.Interface{},
		components:  map[string]*componentEntry{},
		connections: map[string]*connection{},
		rankOwner:   map[int]string{},
	}
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

// AddComponent places a component cohort on the given world ranks with a
// per-rank body started at launch.
func (f *Framework) AddComponent(name string, worldRanks []int, body func(svc *Services) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.components[name]; dup {
		return fmt.Errorf("scirun: component %q already exists", name)
	}
	if len(worldRanks) == 0 {
		return fmt.Errorf("scirun: component %q has no ranks", name)
	}
	for _, wr := range worldRanks {
		if wr < 0 || wr >= f.world.Size() {
			return fmt.Errorf("scirun: rank %d outside world of %d", wr, f.world.Size())
		}
		if owner, taken := f.rankOwner[wr]; taken {
			return fmt.Errorf("scirun: rank %d already hosts %q", wr, owner)
		}
	}
	for _, wr := range worldRanks {
		f.rankOwner[wr] = name
	}
	f.components[name] = &componentEntry{
		name:     name,
		ranks:    append([]int(nil), worldRanks...),
		cohort:   f.world.Group(worldRanks),
		body:     body,
		provides: map[string]*sidl.Interface{},
		uses:     map[string]*sidl.Interface{},
	}
	return nil
}

// AddProvidesPort declares that a component provides a port of the named
// SIDL interface.
func (f *Framework) AddProvidesPort(component, port, ifaceName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.components[component]
	if !ok {
		return fmt.Errorf("scirun: no component %q", component)
	}
	iface, ok := f.interfaces[ifaceName]
	if !ok {
		return fmt.Errorf("scirun: no interface %q", ifaceName)
	}
	if _, dup := e.provides[port]; dup {
		return fmt.Errorf("scirun: %s already provides %q", component, port)
	}
	e.provides[port] = iface
	return nil
}

// AddUsesPort declares a component's connection end point of the named
// SIDL interface.
func (f *Framework) AddUsesPort(component, port, ifaceName string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.components[component]
	if !ok {
		return fmt.Errorf("scirun: no component %q", component)
	}
	iface, ok := f.interfaces[ifaceName]
	if !ok {
		return fmt.Errorf("scirun: no interface %q", ifaceName)
	}
	if _, dup := e.uses[port]; dup {
		return fmt.Errorf("scirun: %s already uses %q", component, port)
	}
	e.uses[port] = iface
	return nil
}

// Connect wires a uses port to a provides port. Interfaces must match,
// and a provides port accepts exactly one connection (each connection is
// one caller/callee PRMI pair).
func (f *Framework) Connect(user, usesPort, provider, provPort string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	ue, ok := f.components[user]
	if !ok {
		return fmt.Errorf("scirun: no component %q", user)
	}
	pe, ok := f.components[provider]
	if !ok {
		return fmt.Errorf("scirun: no component %q", provider)
	}
	ui, ok := ue.uses[usesPort]
	if !ok {
		return fmt.Errorf("scirun: %s has no uses port %q", user, usesPort)
	}
	pi, ok := pe.provides[provPort]
	if !ok {
		return fmt.Errorf("scirun: %s has no provides port %q", provider, provPort)
	}
	if ui != pi {
		return fmt.Errorf("scirun: interface mismatch: %s.%s is %q, %s.%s is %q",
			user, usesPort, ui.Name, provider, provPort, pi.Name)
	}
	key := user + "/" + usesPort
	if _, dup := f.connections[key]; dup {
		return fmt.Errorf("scirun: uses port %s already connected", key)
	}
	for _, c := range f.connections {
		if c.provider == provider && c.provPort == provPort {
			return fmt.Errorf("scirun: provides port %s.%s already connected", provider, provPort)
		}
	}
	f.connections[key] = &connection{
		user: user, usesPort: usesPort,
		provider: provider, provPort: provPort,
		group: f.world.Group(append(append([]int(nil), ue.ranks...), pe.ranks...)),
	}
	return nil
}

// SetArgLayout declares the callee-side distribution of a parallel
// parameter of a provides port method — framework configuration applied
// to both the endpoint and every connected caller before any call is
// received.
func (f *Framework) SetArgLayout(provider, port, method, param string, tpl *dad.Template) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pe, ok := f.components[provider]
	if !ok {
		return fmt.Errorf("scirun: no component %q", provider)
	}
	iface, ok := pe.provides[port]
	if !ok {
		return fmt.Errorf("scirun: %s has no provides port %q", provider, port)
	}
	if _, ok := iface.Method(method); !ok {
		return fmt.Errorf("scirun: interface %s has no method %q", iface.Name, method)
	}
	if tpl.NumProcs() != len(pe.ranks) {
		return fmt.Errorf("scirun: layout spans %d ranks, %s has %d", tpl.NumProcs(), provider, len(pe.ranks))
	}
	f.layouts = append(f.layouts, layoutDecl{provider, port, method, param, tpl})
	return nil
}

// Run launches every component body concurrently on every cohort rank and
// returns the first error after all terminate. Caller ports created
// through GetPort are closed automatically when their body returns.
func (f *Framework) Run() error {
	f.mu.Lock()
	type job struct {
		entry *componentEntry
		rank  int
	}
	var jobs []job
	for _, entry := range f.components {
		for r := range entry.ranks {
			jobs = append(jobs, job{entry, r})
		}
	}
	f.mu.Unlock()

	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			svc := &Services{fw: f, entry: j.entry, rank: j.rank}
			err := j.entry.body(svc)
			svc.closePorts()
			if err != nil {
				errs <- fmt.Errorf("scirun: %s rank %d: %w", j.entry.name, j.rank, err)
			}
		}(j)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// Rank returns this instance's cohort rank.
func (s *Services) Rank() int { return s.rank }

// CohortSize returns the component's cohort width.
func (s *Services) CohortSize() int { return len(s.entry.ranks) }

// Cohort returns the intra-component communicator.
func (s *Services) Cohort() *comm.Comm { return s.entry.cohort[s.rank] }

// GetPort resolves a connected uses port to its PRMI caller proxy — the
// distributed analogue of the direct framework's library-call reference.
// Callee argument layouts declared through SetArgLayout are pre-applied.
func (s *Services) GetPort(usesPort string) (*prmi.CallerPort, error) {
	f := s.fw
	f.mu.Lock()
	conn := f.connections[s.entry.name+"/"+usesPort]
	if conn == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("scirun: uses port %s.%s is not connected", s.entry.name, usesPort)
	}
	iface := s.entry.uses[usesPort]
	prov := f.components[conn.provider]
	layouts := append([]layoutDecl(nil), f.layouts...)
	mode := f.Delivery
	f.mu.Unlock()

	link := prmi.NewCommLink(conn.group[s.rank], len(s.entry.ranks), 0)
	port := prmi.NewCallerPort(iface, link, s.rank, len(prov.ranks), mode)
	for _, l := range layouts {
		if l.provider == conn.provider && l.port == conn.provPort {
			if err := port.SetCalleeLayout(l.method, l.param, l.tpl); err != nil {
				return nil, err
			}
		}
	}
	s.mu.Lock()
	s.callerPorts = append(s.callerPorts, port)
	s.mu.Unlock()
	return port, nil
}

// ProvidesPort builds this rank's PRMI endpoint for a provides port.
// Declared argument layouts are pre-registered; the body registers
// handlers and then calls Serve. The endpoint uses fail-fast order
// checking under eager delivery.
func (s *Services) ProvidesPort(port string) (*prmi.Endpoint, error) {
	f := s.fw
	f.mu.Lock()
	iface, ok := s.entry.provides[port]
	if !ok {
		f.mu.Unlock()
		return nil, fmt.Errorf("scirun: %s has no provides port %q", s.entry.name, port)
	}
	var conn *connection
	for _, c := range f.connections {
		if c.provider == s.entry.name && c.provPort == port {
			conn = c
		}
	}
	if conn == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("scirun: provides port %s.%s has no connection", s.entry.name, port)
	}
	user := f.components[conn.user]
	layouts := append([]layoutDecl(nil), f.layouts...)
	f.mu.Unlock()

	link := prmi.NewCommLink(conn.group[len(user.ranks)+s.rank], 0, 0)
	ep := prmi.NewEndpoint(iface, link, s.rank, len(s.entry.ranks), len(user.ranks))
	ep.StrictMatching = true
	for _, l := range layouts {
		if l.provider == s.entry.name && l.port == port {
			if err := ep.RegisterArgLayout(l.method, l.param, l.tpl); err != nil {
				return nil, err
			}
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

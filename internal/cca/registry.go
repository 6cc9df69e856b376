package cca

import (
	"fmt"
	"slices"
	"sync"

	"mxn/internal/comm"
	"mxn/internal/core"
)

// Registry is the component registry every framework of this module is a
// policy over: it places component cohorts on the ranks of one world,
// records their typed ports, connects them, and runs one body per cohort
// rank. The direct-connected framework, DCA and SCIRun2 keep only what
// they differ in: what a resolved port is, how a call travels, and what a
// rank does when its body ends.
type Registry struct {
	// Exclusive lets a provides port take one connection (SCIRun2, where
	// each connection is one caller/callee PRMI pair).
	Exclusive bool

	world  *comm.World
	shared bool // cohorts may share ranks (the direct-connected framework)

	mu      sync.Mutex
	cohorts map[string]*Cohort
	conns   []*Conn
}

// Body is what Run starts on one rank of a cohort, the framework's exit
// step included.
type Body func(c *Cohort, rank int) error

// Cohort is a placed component: one instance on each of its world ranks.
type Cohort struct {
	Name  string
	Ranks []int        // cohort rank i runs on world rank Ranks[i]
	Comms []*comm.Comm // the intra-cohort communicator, one handle per rank
	// Gone marks a rank down once its body has returned: the one record of
	// an exited rank. A framework hands it to whatever waits on the cohort
	// as a provider, so a call to an exited rank fails with
	// *core.ErrRankDown instead of waiting for a reply.
	Gone *core.Membership

	body  Body
	ports map[portKey]PortType
}

// portKey names a provides port (provides true) or a uses port.
type portKey struct {
	provides bool
	name     string
}

// Conn is one connection from a uses port to a provides port.
type Conn struct {
	User, Provider     *Cohort
	UsesPort, ProvPort string
	Type               PortType
	Group              []*comm.Comm // the user's ranks, then the provider's
}

// NewRegistry returns an empty registry over a world of worldSize ranks.
func NewRegistry(worldSize int) *Registry {
	return &Registry{world: comm.NewWorld(worldSize), cohorts: map[string]*Cohort{}}
}

// World returns the world the cohorts live in.
func (r *Registry) World() *comm.World { return r.world }

// Place puts component name on the given world ranks, cohort rank i on
// ranks[i]; Run starts body on each. A name is placed once, a cohort has
// a rank, and each rank is in the world and, unless cohorts share ranks,
// hosts no other cohort.
func (r *Registry) Place(name string, ranks []int, body Body) (*Cohort, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.cohorts[name]; dup {
		return nil, fmt.Errorf("cca: component %q already exists", name)
	}
	if len(ranks) == 0 {
		return nil, fmt.Errorf("cca: component %q has no ranks", name)
	}
	for _, wr := range ranks {
		if wr < 0 || wr >= r.world.Size() {
			return nil, fmt.Errorf("cca: rank %d outside world of %d", wr, r.world.Size())
		}
		for _, c := range r.cohorts {
			if !r.shared && slices.Contains(c.Ranks, wr) {
				return nil, fmt.Errorf("cca: rank %d already hosts %q", wr, c.Name)
			}
		}
	}
	c := &Cohort{Name: name, Ranks: slices.Clone(ranks), Comms: r.world.Group(ranks),
		Gone: core.NewMembership(len(ranks)), body: body, ports: map[portKey]PortType{}}
	r.cohorts[name] = c
	return c, nil
}

// Cohort returns the placed component name.
func (r *Registry) Cohort(name string) (*Cohort, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookup(name)
}

func (r *Registry) lookup(name string) (*Cohort, error) {
	if c, ok := r.cohorts[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("cca: no component %q", name)
}

// Declare declares a provides port (provides true) or a uses port of
// component comp, of type typ.
func (r *Registry) Declare(comp string, provides bool, port string, typ PortType) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, err := r.lookup(comp)
	if err != nil {
		return err
	}
	if _, dup := c.ports[portKey{provides, port}]; dup {
		return fmt.Errorf("cca: %s already declares port %q", comp, port)
	}
	c.ports[portKey{provides, port}] = typ
	return nil
}

// Port returns component comp and the type of its provides port
// (provides true) or uses port.
func (r *Registry) Port(comp string, provides bool, port string) (*Cohort, PortType, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.port(comp, provides, port)
}

func (r *Registry) port(comp string, provides bool, port string) (*Cohort, PortType, error) {
	c, err := r.lookup(comp)
	if err != nil {
		return nil, "", err
	}
	typ, ok := c.ports[portKey{provides, port}]
	if !ok {
		return nil, "", fmt.Errorf("cca: %s has no port %q", comp, port)
	}
	return c, typ, nil
}

// Connect connects component user's uses port to component provider's
// provides port. Both are declared, with one type, and a uses port takes
// one connection.
func (r *Registry) Connect(user, usesPort, provider, provPort string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ut, err := r.port(user, false, usesPort)
	if err != nil {
		return err
	}
	p, pt, err := r.port(provider, true, provPort)
	if err != nil {
		return err
	}
	if ut != pt {
		return fmt.Errorf("cca: port type mismatch: %s.%s is %q, %s.%s is %q",
			user, usesPort, ut, provider, provPort, pt)
	}
	for _, k := range r.conns {
		if k.User == u && k.UsesPort == usesPort {
			return fmt.Errorf("cca: uses port %s.%s already connected", user, usesPort)
		}
		if r.Exclusive && k.Provider == p && k.ProvPort == provPort {
			return fmt.Errorf("cca: provides port %s.%s already connected", provider, provPort)
		}
	}
	r.conns = append(r.conns, &Conn{User: u, UsesPort: usesPort, Provider: p, ProvPort: provPort,
		Type: ut, Group: r.world.Group(append(slices.Clone(u.Ranks), p.Ranks...))})
	return nil
}

// Conns returns every connection, in the order they were made.
func (r *Registry) Conns() []*Conn {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.conns)
}

// ConnOf returns the connection of cohort c's provides port (provides
// true; the first, if it has several) or uses port.
func (r *Registry) ConnOf(c *Cohort, provides bool, port string) (*Conn, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range r.conns {
		if provides && k.Provider == c && k.ProvPort == port || !provides && k.User == c && k.UsesPort == port {
			return k, nil
		}
	}
	return nil, fmt.Errorf("cca: port %s.%s is not connected", c.Name, port)
}

// Run starts every cohort's body on each of its ranks, all at once, and
// returns the first error once every body has returned. A rank's error is
// recorded before the rank is marked Gone, so whoever sees it gone reports
// after it. A registry runs once: its exited ranks stay Gone.
func (r *Registry) Run() error {
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	r.mu.Lock()
	for _, c := range r.cohorts {
		for rank := range c.Ranks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.body(c, rank); err != nil {
					once.Do(func() { first = fmt.Errorf("cca: %s rank %d: %w", c.Name, rank, err) })
				}
				c.Gone.MarkDown(rank)
			}()
		}
	}
	r.mu.Unlock()
	wg.Wait()
	return first
}

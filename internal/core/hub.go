package core

import (
	"fmt"
	"sync"

	"mxn/internal/dad"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// Hub is one side's M×N component: the cohort-shared state through which
// a parallel component registers distributed data fields and negotiates
// connections with a peer hub across a Bridge.
//
// A Hub is shared by all ranks of its cohort (instances of the M×N
// component are co-located with the application's processes; here the
// cohort shares one address space, so the component state is one value).
// All methods are safe for concurrent use by the cohort's ranks.
type Hub struct {
	name   string
	np     int
	bridge Bridge

	mu     sync.Mutex
	fields map[string]*field
	conns  map[string]*Connection
}

// field is one registered distributed data field.
type field struct {
	desc *dad.Descriptor
}

// NewHub creates an M×N component instance cohort of np ranks attached to
// one end of a bridge. name appears in errors and connection identifiers.
func NewHub(name string, np int, bridge Bridge) *Hub {
	return &Hub{
		name:   name,
		np:     np,
		bridge: bridge,
		fields: map[string]*field{},
		conns:  map[string]*Connection{},
	}
}

// NumProcs returns the cohort width (the current one, if the hub has
// been resized).
func (h *Hub) NumProcs() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.np
}

// Register publishes a distributed data field for M×N transfers. The
// descriptor's template must be decomposed over exactly the hub's cohort,
// and the access mode constrains which transfer directions the field may
// join (read = outbound source, write = inbound destination).
func (h *Hub) Register(desc *dad.Descriptor) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if desc.Template.NumProcs() != h.np {
		return fmt.Errorf("core: field %q is decomposed over %d ranks, hub %q has %d",
			desc.Name, desc.Template.NumProcs(), h.name, h.np)
	}
	if _, dup := h.fields[desc.Name]; dup {
		return fmt.Errorf("core: field %q already registered", desc.Name)
	}
	h.fields[desc.Name] = &field{desc: desc}
	return nil
}

// Unregister removes a field. Connections already established keep their
// schedules.
func (h *Hub) Unregister(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.fields, name)
}

// Sync selects the synchronization option of a persistent connection
// (the CUMULVS-style "variety of synchronization options").
type Sync int

// Synchronization options.
const (
	// SyncEachFrame: every produced frame is consumed exactly once; the
	// consumer sees every epoch in order.
	SyncEachFrame Sync = iota
	// FreeRunning: the producer never waits; the consumer samples the
	// newest available frame and older ones are discarded. Suited to
	// visualization, where only the current state matters.
	FreeRunning
)

// ConnOpts configures a connection at creation time.
type ConnOpts struct {
	// Persistent marks a channel intended for recurring periodic
	// transfers; one-shot connections perform a single transfer per
	// DataReady pair either way, so this is documentation plus validation
	// for Sync.
	Persistent bool
	// Sync selects the persistent synchronization option.
	Sync Sync
}

// Direction tells Propose whether the local field is the source or the
// destination of the connection — which is what lets either side (or a
// third party driving one side) initiate.
type Direction int

// Connection directions relative to the proposing hub.
const (
	AsSource Direction = iota
	AsDestination
)

// control protocol message kinds.
const (
	ctlPropose byte = 1
	ctlAccept  byte = 2
	ctlReject  byte = 3
)

// Propose negotiates a connection with the peer hub: the local field
// localField couples to the peer's remoteField, with the local side acting
// as dir. The peer must be in Accept. The returned connection is ready for
// DataReady calls.
func (h *Hub) Propose(connID, localField, remoteField string, dir Direction, opts ConnOpts) (*Connection, error) {
	f, err := h.lookupField(localField)
	if err != nil {
		return nil, err
	}
	if dir == AsSource && !f.desc.Mode.CanRead() {
		return nil, fmt.Errorf("core: field %q mode %s forbids outbound transfers", localField, f.desc.Mode)
	}
	if dir == AsDestination && !f.desc.Mode.CanWrite() {
		return nil, fmt.Errorf("core: field %q mode %s forbids inbound transfers", localField, f.desc.Mode)
	}

	e := wire.NewEncoder(nil)
	e.PutByte(ctlPropose)
	e.PutString(connID)
	e.PutString(remoteField)
	e.PutBool(dir == AsSource) // proposer is source?
	e.PutBool(opts.Persistent)
	e.PutByte(byte(opts.Sync))
	f.desc.Encode(e)
	if err := h.bridge.SendControl(e.Bytes()); err != nil {
		return nil, err
	}
	reply, err := h.bridge.RecvControl()
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(reply)
	switch d.Byte() {
	case ctlReject:
		return nil, fmt.Errorf("core: peer rejected connection %q: %s", connID, d.String())
	case ctlAccept:
		peerDesc, err := dad.DecodeDescriptor(d)
		if err != nil {
			return nil, err
		}
		return h.finishConnection(connID, f.desc, peerDesc, dir, opts)
	default:
		return nil, fmt.Errorf("core: unexpected control reply for %q", connID)
	}
}

// Accept waits for one incoming connection proposal, validates it against
// the registered fields and completes the negotiation. It returns the
// established connection, whose Direction is relative to this hub.
func (h *Hub) Accept() (*Connection, error) {
	msg, err := h.bridge.RecvControl()
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(msg)
	if kind := d.Byte(); kind != ctlPropose {
		return nil, fmt.Errorf("core: unexpected control message kind %d", kind)
	}
	connID := d.String()
	localField := d.String()
	proposerIsSource := d.Bool()
	opts := ConnOpts{Persistent: d.Bool(), Sync: Sync(d.Byte())}
	peerDesc, derr := dad.DecodeDescriptor(d)

	reject := func(reason string) (*Connection, error) {
		e := wire.NewEncoder(nil)
		e.PutByte(ctlReject)
		e.PutString(reason)
		if err := h.bridge.SendControl(e.Bytes()); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("core: rejected connection %q: %s", connID, reason)
	}
	if derr != nil {
		return reject(fmt.Sprintf("bad descriptor: %v", derr))
	}
	f, err := h.lookupField(localField)
	if err != nil {
		return reject(err.Error())
	}
	dir := AsSource
	if proposerIsSource {
		dir = AsDestination
	}
	if dir == AsSource && !f.desc.Mode.CanRead() {
		return reject(fmt.Sprintf("field %q mode %s forbids outbound transfers", localField, f.desc.Mode))
	}
	if dir == AsDestination && !f.desc.Mode.CanWrite() {
		return reject(fmt.Sprintf("field %q mode %s forbids inbound transfers", localField, f.desc.Mode))
	}
	if !f.desc.Template.Conforms(peerDesc.Template) {
		return reject("templates do not conform")
	}

	e := wire.NewEncoder(nil)
	e.PutByte(ctlAccept)
	f.desc.Encode(e)
	if err := h.bridge.SendControl(e.Bytes()); err != nil {
		return nil, err
	}
	return h.finishConnection(connID, f.desc, peerDesc, dir, opts)
}

// Connect is the third-party initiation path for two co-located hubs: a
// controller that holds both hubs couples srcField on src to dstField on
// dst, without either component knowing about the connection — the
// property the paper highlights for incorporating legacy codes.
func Connect(connID string, src *Hub, srcField string, dst *Hub, dstField string, opts ConnOpts) (srcConn, dstConn *Connection, err error) {
	type res struct {
		c   *Connection
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := dst.Accept()
		ch <- res{c, err}
	}()
	srcConn, err = src.Propose(connID, srcField, dstField, AsSource, opts)
	r := <-ch
	if err != nil {
		return nil, nil, err
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return srcConn, r.c, nil
}

// finishConnection builds the schedule and installs the connection.
func (h *Hub) finishConnection(connID string, local, peer *dad.Descriptor, dir Direction, opts ConnOpts) (*Connection, error) {
	if !local.Template.Conforms(peer.Template) {
		return nil, fmt.Errorf("core: connection %q: templates do not conform", connID)
	}
	var s *schedule.Schedule
	var err error
	if dir == AsSource {
		s, err = schedule.Build(local.Template, peer.Template)
	} else {
		s, err = schedule.Build(peer.Template, local.Template)
	}
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	c := &Connection{
		ID:    connID,
		hub:   h,
		dir:   dir,
		sched: s,
		opts:  opts,
		local: local,
		seqs:  make([]uint64, local.Template.NumProcs()),
	}
	if _, dup := h.conns[connID]; dup {
		return nil, fmt.Errorf("core: connection %q already exists", connID)
	}
	h.conns[connID] = c
	return c, nil
}

func (h *Hub) lookupField(name string) (*field, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f, ok := h.fields[name]
	if !ok {
		return nil, fmt.Errorf("core: hub %q has no field %q", h.name, name)
	}
	return f, nil
}

// Connection returns an established connection by id.
func (h *Hub) Connection(id string) (*Connection, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.conns[id]
	return c, ok
}

// Package mxn is a Go implementation of the parallel data redistribution
// and parallel remote method invocation (PRMI) middleware for parallel
// component architectures described in:
//
//	Bertrand, Bramley, Bernholdt, Kohl, Sussman, Larson, Damevski.
//	"Data Redistribution and Remote Method Invocation in Parallel
//	Component Architectures." IPPS/IPDPS 2005.
//
// The library solves the "M×N problem": two parallel programs — one on M
// processes, one on N — must exchange distributed data structures whose
// decompositions differ, and invoke methods on each other collectively.
//
// This root package is the public facade: it re-exports the library's
// types and constructors so downstream users need a single import. The
// implementation lives in focused subsystems:
//
//   - Distributed Array Descriptors (templates, per-axis and explicit
//     distributions, local layout math) — the paper's Section 2.2.2.
//   - Linearization, the alternative intermediate representation
//     (Section 2.2.1).
//   - Communication schedules: computed once, reused across transfers
//     and across conforming arrays (Section 2.3).
//   - Redistribution executors, including the generalized M×N component
//     with registration, one-shot and persistent connections, and
//     matched DataReady semantics (Section 4.1).
//   - PRMI: independent/collective/one-way invocations declared in a
//     small scientific IDL, ghost invocations and returns for M≠N,
//     parallel arguments redistributed automatically, and both delivery
//     strategies of the paper's Figure 5 (Section 2.4).
//   - Robustness beyond the paper: heartbeat liveness with shared
//     membership epochs, epoch-fenced transfers with strict and
//     redistribute failure policies, resumable sessions (exactly-once
//     links, so PRMI over one is exactly-once), and online
//     cohort resize (grow/shrink) via a two-phase epoch-fenced
//     migration protocol.
//   - The surveyed implementations rebuilt on the same substrates:
//     SCIRun2-style IDL-driven framework, the MPI-flavoured DCA,
//     InterComm's timestamp-coordinated import/export, the Model Coupling
//     Toolkit layer, and CUMULVS-style visualization/steering
//     (Section 4, Figure 4).
//
// An MPI-like in-process runtime (ranks as goroutines, tagged messages,
// collectives) substitutes for MPI so the whole system runs and is
// testable on one machine; a TCP transport serves genuinely distributed
// deployments.
package mxn

import (
	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/redist"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
)

// ---- Parallel runtime (MPI substitute) ----

// Comm is one rank's communicator handle: tagged point-to-point messages
// plus barrier/bcast/gather/allgather/reduce/alltoallv collectives.
type Comm = comm.Comm

// World is a fixed set of ranks that can exchange messages.
type World = comm.World

// NewWorld creates a world with n ranks.
func NewWorld(n int) *World { return comm.NewWorld(n) }

// Run spawns n goroutine ranks over a fresh world and blocks until all
// return — the standard way to stand up a parallel cohort.
func Run(n int, body func(c *Comm)) { comm.Run(n, body) }

// Wildcards for Comm.Recv.
const (
	AnySource = comm.AnySource
	AnyTag    = comm.AnyTag
)

// ---- Distributed Array Descriptors ----

// Template describes the logical distribution of a global index space
// over a process grid (or an explicit patch tiling).
type Template = dad.Template

// AxisDist is one axis's distribution.
type AxisDist = dad.AxisDist

// Patch is an axis-aligned rectangle of global index space owned by one
// rank.
type Patch = dad.Patch

// Descriptor is a registered distributed array: name, element kind,
// access mode and template.
type Descriptor = dad.Descriptor

// Access is a field's allowed transfer directions.
type Access = dad.Access

// Access modes.
const (
	ReadOnly  = dad.ReadOnly
	WriteOnly = dad.WriteOnly
	ReadWrite = dad.ReadWrite
)

// ElemKind is a distributed array's element type.
type ElemKind = dad.ElemKind

// Element kinds.
const (
	Float64    = dad.Float64
	Float32    = dad.Float32
	Int64      = dad.Int64
	Int32      = dad.Int32
	Byte       = dad.Byte
	Complex128 = dad.Complex128
)

// NewTemplate builds a regular template from per-axis distributions.
func NewTemplate(dims []int, axes []AxisDist) (*Template, error) { return dad.NewTemplate(dims, axes) }

// NewExplicitTemplate builds a template from an arbitrary non-overlapping
// patch tiling.
func NewExplicitTemplate(dims []int, nprocs int, patches []Patch) (*Template, error) {
	return dad.NewExplicitTemplate(dims, nprocs, patches)
}

// NewDescriptor builds a validated descriptor.
func NewDescriptor(name string, elem ElemKind, mode Access, t *Template) (*Descriptor, error) {
	return dad.NewDescriptor(name, elem, mode, t)
}

// NewPatch builds a patch with copied bounds.
func NewPatch(lo, hi []int, owner int) Patch { return dad.NewPatch(lo, hi, owner) }

// Per-axis distribution constructors.
var (
	CollapsedAxis   = dad.CollapsedAxis
	BlockAxis       = dad.BlockAxis
	CyclicAxis      = dad.CyclicAxis
	BlockCyclicAxis = dad.BlockCyclicAxis
	GenBlockAxis    = dad.GenBlockAxis
	ImplicitAxis    = dad.ImplicitAxis
)

// ---- Communication schedules ----

// Schedule is a redistribution plan between two conforming templates:
// per rank pair, the contiguous runs to move between local buffers.
type Schedule = schedule.Schedule

// ScheduleCache memoizes schedules by template pair.
type ScheduleCache = schedule.Cache

// BuildSchedule computes the redistribution schedule from src to dst.
func BuildSchedule(src, dst *Template) (*Schedule, error) { return schedule.Build(src, dst) }

// NewScheduleCache returns an empty schedule cache.
func NewScheduleCache() *ScheduleCache { return schedule.NewCache() }

// ---- Redistribution executors ----

// Layout places the two cohorts of a transfer within one communicator
// group.
type Layout = redist.Layout

// Elem constrains the element types the transfer engine moves natively:
// float64, float32, int64, int32 and complex128. The element size flows
// from the type parameter through packing to the raw-byte message
// payloads.
type Elem = redist.Elem

// TransferOpts holds every transfer setting: a MaxBytesInFlight memory
// budget (acknowledged rounds of packed chunks instead of whole messages,
// with identical destination contents), ZeroCopyLocal (lend chunks to
// in-process ranks, which copy them straight from the source, as a
// budgeted transfer always does), a Membership to fence on with its
// failure Policy and detection knobs, and the Resize a migration runs
// inside. Every rank of one transfer must pass the same MaxBytesInFlight.
type TransferOpts = redist.TransferOpts

// Transfer is one rank's persistent redistribution handle: build it once
// per coupling with NewTransfer, then Run(src, dst) every step. Every
// rank of both cohorts builds one on the same schedule and options and
// runs it the same number of times. Run returns a
// *FenceOutcome when the transfer is fenced (TransferOpts.Membership
// set), nil otherwise.
type Transfer[T Elem] struct{ *redist.Transfer[T] }

// NewTransfer builds this rank's handle on a parallel transfer of
// schedule s — built from two templates (BuildSchedule) or two
// linearizations (LinearSchedule); baseTag is its tag.
func NewTransfer[T Elem](c *Comm, s *Schedule, lay Layout, baseTag int, opts TransferOpts) (*Transfer[T], error) {
	t, err := redist.New[T](c, s, lay, baseTag, opts)
	if err != nil {
		return nil, err
	}
	return &Transfer[T]{t}, nil
}

// ExecuteLocal runs a whole schedule in one goroutine (reference
// executor).
func ExecuteLocal[T Elem](s *Schedule, srcLocals, dstLocals [][]T) {
	redist.ExecuteLocalT(s, srcLocals, dstLocals)
}

// Redistribute is the one-call convenience API: build the schedule for
// (src, dst) and move srcLocals into dstLocals locally.
func Redistribute[T Elem](src, dst *Template, srcLocals, dstLocals [][]T) error {
	s, err := schedule.Build(src, dst)
	if err != nil {
		return err
	}
	redist.ExecuteLocalT(s, srcLocals, dstLocals)
	return nil
}

// ---- Linearization ----

// Linearizer maps one side's elements to positions of an abstract
// one-dimensional arrangement: the intermediate representation of the
// Meta-Chaos / Indiana MPI-IO approach (Section 2.2.1).
type Linearizer = schedule.Linearizer

// Segment says that linear positions [Pos, Pos+N) live at offsets
// [Off, Off+N) of a rank's canonical local buffer: what a Linearizer's
// Segments returns.
type Segment = schedule.Segment

// RowMajorLinearization linearizes a template by global row-major order:
// the abstract one-dimensional intermediate representation of a
// distributed array.
func RowMajorLinearization(t *Template) Linearizer { return schedule.NewRowMajor(t) }

// LinearSchedule lowers two linearizations of the same length to a
// schedule for NewTransfer: position k on the source side lands at
// position k on the destination side. What the Indiana device's receivers
// request on every transfer is computed here once; a position no source
// owns, or two do, is an error.
func LinearSchedule(srcLin, dstLin Linearizer) (*Schedule, error) {
	return schedule.FromLinear(srcLin, dstLin)
}

// ---- The M×N component (the paper's Section 4.1) ----

// Hub is one side's M×N component: field registration plus connection
// negotiation over a bridge.
type Hub = core.Hub

// Connection is an established M×N coupling; DataReady performs matched
// transfers.
type Connection = core.Connection

// Bridge is the out-of-band channel between paired M×N components.
type Bridge = core.Bridge

// ConnOpts configures a connection (persistence, synchronization).
type ConnOpts = core.ConnOpts

// Direction tells which role the local field plays.
type Direction = core.Direction

// Connection roles and synchronization options.
const (
	AsSource      = core.AsSource
	AsDestination = core.AsDestination
	SyncEachFrame = core.SyncEachFrame
	FreeRunning   = core.FreeRunning
)

// ErrChannelClosed reports a persistent stream closed by its source.
var ErrChannelClosed = core.ErrChannelClosed

// NewHub creates an M×N component cohort attached to a bridge end.
func NewHub(name string, np int, bridge Bridge) *Hub { return core.NewHub(name, np, bridge) }

// BridgePair returns an in-memory bridge for co-located frameworks
// (Figure 3).
func BridgePair() (a, b Bridge) { return core.BridgePair() }

// NewNetBridge wraps a transport connection end as a bridge.
func NewNetBridge(conn transport.Conn) Bridge { return core.NewNetBridge(conn) }

// ConnectHubs is third-party connection initiation between two co-located
// hubs.
func ConnectHubs(connID string, src *Hub, srcField string, dst *Hub, dstField string, opts ConnOpts) (srcConn, dstConn *Connection, err error) {
	return core.Connect(connID, src, srcField, dst, dstField, opts)
}

// ---- Transport ----

// Conn is a reliable ordered message connection between frameworks. A
// message Recv returns is a pooled frame the caller owns; hand it back
// with PutFrame once done with its bytes.
type Conn = transport.Conn

// PutFrame returns a message received from a Conn (or any prefix of it)
// to the buffer pool the receive path reads into.
func PutFrame(msg []byte) { bufpool.PutFrame(msg) }

// Listener accepts incoming transport connections.
type Listener = transport.Listener

// Listen opens a listener on "inproc" or "tcp".
func Listen(network, addr string) (Listener, error) { return transport.Listen(network, addr) }

// Dial connects to a listener.
func Dial(network, addr string) (Conn, error) { return transport.Dial(network, addr) }

// Pipe returns a connected in-memory transport pair.
func Pipe() (Conn, Conn) { return transport.Pipe() }

// ---- Session layer ----

// SessionConfig tunes a resumable session; the zero value selects the
// defaults documented on each field.
type SessionConfig = session.Config

// SessionListener accepts resumable sessions. Accept yields each
// session exactly once; a reconnecting peer is absorbed into its
// existing session silently.
type SessionListener = session.Listener

// ErrPeerLost reports a session whose per-outage reconnect budget was
// exhausted: the link stayed down past MaxAttempts/MaxElapsed and the
// circuit is open. The concrete error is *session.PeerLostError, which
// also matches transport's ErrClosed.
var ErrPeerLost = session.ErrPeerLost

// DialSession connects a resumable exactly-once session to a
// WrapSessionListener peer. The returned Conn transparently redials
// (jittered exponential backoff) and replays unacknowledged messages
// across physical connection loss, so everything layered on it — a net
// bridge, or a ConnectPeer coupling and the PRMI links over it — survives
// link flaps.
func DialSession(network, addr string, cfg SessionConfig) (Conn, error) {
	return session.Dial(network, addr, cfg)
}

// WrapSessionListener layers session resumption over any listener.
func WrapSessionListener(inner Listener, cfg SessionConfig) *SessionListener {
	return session.WrapListener(inner, cfg)
}

// ---- SIDL and PRMI ----

// SIDLPackage is a parsed scientific-IDL source unit.
type SIDLPackage = sidl.Package

// SIDLInterface is one declared port interface with PRMI attributes.
type SIDLInterface = sidl.Interface

// ParseSIDL parses scientific-IDL source with the paper's PRMI
// extensions (collective/independent/oneway methods, parallel array
// parameters).
func ParseSIDL(src string) (*SIDLPackage, error) { return sidl.Parse(src) }

// CallerPort is a caller rank's proxy for a remote parallel port.
type CallerPort = prmi.CallerPort

// Endpoint is a callee rank's server for a remote parallel port.
type Endpoint = prmi.Endpoint

// Incoming and Outgoing are the callee-side views of one invocation.
type (
	Incoming = prmi.Incoming
	Outgoing = prmi.Outgoing
)

// Handler services one method at one callee rank.
type Handler = prmi.Handler

// Participation declares which caller ranks take part in a collective
// invocation.
type Participation = prmi.Participation

// Arg is one named invocation argument.
type Arg = prmi.Arg

// Result is a non-oneway invocation's outcome.
type Result = prmi.Result

// DeliveryMode selects eager or barrier-delayed invocation delivery
// (Figure 5).
type DeliveryMode = prmi.DeliveryMode

// Delivery modes.
const (
	Eager          = prmi.Eager
	BarrierDelayed = prmi.BarrierDelayed
)

// ErrStalled reports a collective invocation stalled waiting for
// participants — the observable Figure 5 deadlock.
var ErrStalled = prmi.ErrStalled

// Link carries PRMI messages between the two sides of a port connection.
// A custom Link passes each LinkMsg through unopened; ownership moves with
// it (Send takes the message over, the receiver releases it). Its Recv
// takes the next message from one peer rank, or from any with AnyPeer;
// messages from other peers wait in the link, in arrival order, for a
// later Recv — an endpoint collecting a collective call receives from each
// participant in turn.
type (
	Link    = prmi.Link
	LinkMsg = prmi.Msg
)

// AnyPeer makes a Link's Recv take a message from any peer rank.
const AnyPeer = prmi.AnyPeer

// NewCallerPort builds a caller-side port proxy.
func NewCallerPort(iface *SIDLInterface, link Link, rank, nCallee int, mode DeliveryMode) *CallerPort {
	return prmi.NewCallerPort(iface, link, rank, nCallee, mode)
}

// NewEndpoint builds a callee-rank server.
func NewEndpoint(iface *SIDLInterface, link Link, rank, nCallee, nCaller int) *Endpoint {
	return prmi.NewEndpoint(iface, link, rank, nCallee, nCaller)
}

// NewCommLink builds a PRMI link over a shared communicator.
func NewCommLink(c *Comm, peerBase, tag int) Link { return prmi.NewCommLink(c, peerBase, tag) }

// Simple builds a simple (replicated) argument.
func Simple(name string, v any) Arg { return prmi.Simple(name, v) }

// Parallel builds a parallel (decomposed, redistributed) argument.
func Parallel(name string, t *Template, local []float64) Arg { return prmi.Parallel(name, t, local) }

// FullParticipation declares that every caller cohort rank participates.
func FullParticipation(cohort *Comm) Participation { return prmi.FullParticipation(cohort) }

// ---- Liveness, fenced transfers and malleability ----

// Membership is a cohort's shared liveness and epoch view: which ranks
// are alive, the current configuration epoch, and — for malleable
// cohorts — the active width within the rank universe.
type Membership = core.Membership

// ErrRankDown is the typed error for operations touching a dead rank.
type ErrRankDown = core.ErrRankDown

// NewMembership creates an all-alive membership of n ranks at epoch 1.
func NewMembership(n int) *Membership { return core.NewMembership(n) }

// HeartbeatConfig tunes the failure detector; HeartbeatConfigError is the
// typed rejection for non-positive intervals or thresholds.
type (
	HeartbeatConfig      = core.HeartbeatConfig
	HeartbeatConfigError = core.HeartbeatConfigError
	Heartbeater          = core.Heartbeater
)

// DefaultHeartbeatConfig returns the standard detector tuning.
func DefaultHeartbeatConfig() HeartbeatConfig { return core.DefaultHeartbeatConfig() }

// StartHeartbeats runs a heartbeat failure detector for this rank,
// marking peers down in the membership after missed beats.
func StartHeartbeats(c *Comm, m *Membership, cfg HeartbeatConfig, peers []int) (*Heartbeater, error) {
	return core.StartHeartbeats(c, m, cfg, peers)
}

// FailPolicy selects what a fenced transfer does on a rank death: abort
// (FailStrict) or re-plan over the survivors (FailRedistribute).
type FailPolicy = redist.FailPolicy

// Failure policies.
const (
	FailStrict       = redist.FailStrict
	FailRedistribute = redist.FailRedistribute
)

// FenceOutcome reports a fenced transfer's entry epoch, the dead ranks it
// observed, and per-element validity under FailRedistribute.
type FenceOutcome = redist.Outcome

// RestrictSchedule drops a schedule's messages touching dead ranks — the
// re-plan under FailRedistribute.
func RestrictSchedule(s *Schedule, aliveSrc, aliveDst func(rank int) bool) *Schedule {
	return schedule.Restrict(s, aliveSrc, aliveDst)
}

// Resize is a two-phase cohort resize in flight: propose → migrate →
// Commit or Abort. ResizeInProgressError and ResizeStateError are its
// typed rejections (overlapping proposals, reused handles).
type (
	Resize                = core.Resize
	ResizeInProgressError = core.ResizeInProgressError
	ResizeStateError      = core.ResizeStateError
)

// ReblockError is the typed rejection for layouts that cannot be
// re-derived over a new width (implicit owner maps, explicit tilings).
type ReblockError = dad.ReblockError

// Reblock re-derives a template's distribution over a new cohort width,
// preserving each axis's distribution family.
func Reblock(t *Template, newWidth int) (*Template, error) { return dad.Reblock(t, newWidth) }

// ReblockGrid is Reblock with an explicit per-axis process grid.
func ReblockGrid(t *Template, newGrid []int) (*Template, error) { return dad.ReblockGrid(t, newGrid) }

// RemapSchedule plans the old-cohort→new-cohort migration between two
// same-shape templates (the resize counterpart of BuildSchedule).
func RemapSchedule(old, next *Template) (*Schedule, error) { return schedule.Remap(old, next) }

// ExpandSchedule renumbers a schedule's cohort ranks into a wider
// universe — the inverse direction of RestrictSchedule.
func ExpandSchedule(s *Schedule, newSrc, newDst *Template, srcMap, dstMap []int) (*Schedule, error) {
	return schedule.Expand(s, newSrc, newDst, srcMap, dstMap)
}

// ReconfigureError is NewTransfer's typed rejection of a malformed
// migration (TransferOpts.Resize set): width mismatches, undersized
// groups, no membership.
type ReconfigureError = redist.ReconfigureError

// CommitReconfigure commits a resize (the new width becomes current) and
// drops the retired old-geometry plans from the cache.
func CommitReconfigure(rz *Resize, cache *ScheduleCache, oldTemplates ...*Template) (int, error) {
	return redist.CommitReconfigure(rz, cache, oldTemplates...)
}

// AbortReconfigure rolls a resize back (the old width stays current) and
// drops the never-adopted new-geometry plans from the cache.
func AbortReconfigure(rz *Resize, cache *ScheduleCache, newTemplates ...*Template) (int, error) {
	return redist.AbortReconfigure(rz, cache, newTemplates...)
}

// ---- Pipelines (Section 6: composed redistributions and filters) ----

// ComposeSchedules fuses two schedules A→B and B→C into one A→C plan with
// no intermediate materialization (the paper's "super-component").
func ComposeSchedules(s1, s2 *Schedule) (*Schedule, error) { return schedule.Compose(s1, s2) }

// ParallelRef builds a parallel in-argument passed by reference: the data
// stays on the caller until the callee specifies its layout and pulls it
// (the paper's delayed-transfer strategy for callee-side layouts).
func ParallelRef(name string, t *Template, local []float64) Arg {
	return prmi.ParallelRef(name, t, local)
}

package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"mxn/internal/dad"
	"mxn/internal/schedule"
)

// ErrChannelClosed is returned by destination-side DataReady when the
// source has closed its persistent stream.
var ErrChannelClosed = errors.New("core: channel closed by source")

// eosSeq marks the end-of-stream frame; math.MaxUint64 keeps it "newest"
// for free-running consumers.
const eosSeq = math.MaxUint64

// Connection is one side's handle on an established M×N coupling between
// two registered fields. The same type serves both roles; Dir tells which
// one this side plays.
//
// Transfers follow the paper's matched-dataReady protocol: each source
// cohort rank calls DataReady when its local portion is consistent, which
// initiates that rank's independent pairwise messages; each destination
// rank's matching DataReady completes them. When all pairwise messages of
// an epoch have been exchanged the transfer is complete — with no barrier
// on either side.
type Connection struct {
	ID    string
	hub   *Hub
	dir   Direction
	sched *schedule.Schedule
	opts  ConnOpts
	local *dad.Descriptor
	seqs  []uint64

	transfers  atomic.Int64
	elemsMoved atomic.Int64

	// peer is the liveness view of the remote cohort, if the
	// application runs a failure detector. When set, destination-side
	// DataReady refuses to wait on fragments from a dead source rank
	// and returns *ErrRankDown instead of hanging.
	peer atomic.Pointer[Membership]
}

// SetPeerMembership attaches a liveness view of the remote cohort. Safe to
// call concurrently with transfers; pass nil to detach.
func (c *Connection) SetPeerMembership(m *Membership) { c.peer.Store(m) }

// PeerMembership returns the attached remote-cohort view, or nil.
func (c *Connection) PeerMembership() *Membership { return c.peer.Load() }

// Dir returns this side's role.
func (c *Connection) Dir() Direction { return c.dir }

// Schedule exposes the communication schedule (source→destination
// orientation) for inspection and reporting.
func (c *Connection) Schedule() *schedule.Schedule { return c.sched }

// Opts returns the connection options fixed at creation.
func (c *Connection) Opts() ConnOpts { return c.opts }

// Stats reports the number of completed DataReady calls on this side and
// the total elements moved through them.
func (c *Connection) Stats() (transfers, elems int64) {
	return c.transfers.Load(), c.elemsMoved.Load()
}

// pairChannel names the bridge channel of one (source rank, destination
// rank) pair.
func (c *Connection) pairChannel(src, dst int) string {
	return fmt.Sprintf("%s/%d>%d", c.ID, src, dst)
}

// DataReady performs this rank's part of one transfer epoch.
//
// On the source side it packs and posts every outgoing pairwise fragment
// and returns without waiting for the destination. On the destination
// side it blocks until this rank's incoming fragments arrive and unpacks
// them into local. The returned epoch is this rank's transfer counter
// (for SyncEachFrame destinations it equals the source epoch; for
// FreeRunning it is the sampled frame's epoch).
func (c *Connection) DataReady(rank int, local []float64) (uint64, error) {
	// The connection's cohort is the one its schedule was built for; a
	// later Hub.Resize changes the hub's width, not this connection's.
	if rank < 0 || rank >= len(c.seqs) {
		return 0, fmt.Errorf("core: connection %q: rank %d outside cohort of %d", c.ID, rank, len(c.seqs))
	}
	if want := c.local.Template.LocalCount(rank); len(local) != want {
		return 0, fmt.Errorf("core: connection %q rank %d: buffer has %d elements, descriptor says %d",
			c.ID, rank, len(local), want)
	}
	if c.dir == AsSource {
		epoch := c.seqs[rank]
		c.seqs[rank]++
		for _, plan := range c.sched.OutgoingFor(rank) {
			buf := make([]float64, plan.Elems)
			schedule.PackSlice(plan, local, buf)
			if err := c.hub.bridge.SendData(c.pairChannel(plan.SrcRank, plan.DstRank), epoch, buf); err != nil {
				return 0, err
			}
			c.elemsMoved.Add(int64(plan.Elems))
		}
		c.transfers.Add(1)
		return epoch, nil
	}

	// Destination side.
	if c.opts.Persistent && c.opts.Sync == FreeRunning {
		return c.recvLatest(rank, local)
	}
	epoch := c.seqs[rank]
	c.seqs[rank]++
	for _, plan := range c.sched.IncomingFor(rank) {
		if mb := c.peer.Load(); mb != nil && !mb.IsAlive(plan.SrcRank) {
			return 0, &ErrRankDown{Rank: plan.SrcRank, Epoch: mb.Epoch()}
		}
		data, err := c.hub.bridge.RecvData(c.pairChannel(plan.SrcRank, plan.DstRank), epoch)
		if err != nil {
			return 0, err
		}
		if len(data) == 0 {
			return 0, ErrChannelClosed
		}
		if len(data) != plan.Elems {
			return 0, fmt.Errorf("core: connection %q: pair %d→%d epoch %d carried %d elements, schedule says %d",
				c.ID, plan.SrcRank, plan.DstRank, epoch, len(data), plan.Elems)
		}
		schedule.UnpackSlice(plan, local, data)
		c.elemsMoved.Add(int64(plan.Elems))
	}
	c.transfers.Add(1)
	return epoch, nil
}

// recvLatest implements the free-running destination: sample the newest
// frame of every incoming pair. Fragments from different sources may
// belong to different epochs (the price of never blocking the producer);
// the returned epoch is the minimum observed, a coherence indicator.
func (c *Connection) recvLatest(rank int, local []float64) (uint64, error) {
	minEpoch := uint64(math.MaxUint64)
	for _, plan := range c.sched.IncomingFor(rank) {
		seq, data, err := c.hub.bridge.RecvLatest(c.pairChannel(plan.SrcRank, plan.DstRank))
		if err != nil {
			return 0, err
		}
		if seq == eosSeq || len(data) == 0 {
			return 0, ErrChannelClosed
		}
		if len(data) != plan.Elems {
			return 0, fmt.Errorf("core: connection %q: pair %d→%d frame carried %d elements, schedule says %d",
				c.ID, plan.SrcRank, plan.DstRank, len(data), plan.Elems)
		}
		schedule.UnpackSlice(plan, local, data)
		c.elemsMoved.Add(int64(plan.Elems))
		if seq < minEpoch {
			minEpoch = seq
		}
	}
	c.transfers.Add(1)
	return minEpoch, nil
}

// CloseStream ends a persistent connection from the source side: every
// destination rank's next (or, for free-running consumers, newest)
// DataReady returns ErrChannelClosed. Each source rank closes its own
// outgoing pairs.
func (c *Connection) CloseStream(rank int) error {
	if c.dir != AsSource {
		return fmt.Errorf("core: CloseStream is a source-side operation")
	}
	for _, plan := range c.sched.OutgoingFor(rank) {
		seq := c.seqs[rank]
		if c.opts.Persistent && c.opts.Sync == FreeRunning {
			seq = eosSeq
		}
		if err := c.hub.bridge.SendData(c.pairChannel(plan.SrcRank, plan.DstRank), seq, nil); err != nil {
			return err
		}
	}
	return nil
}

// RunProducer drives a persistent source rank: next is called with the
// epoch and returns the frame to publish, or nil to close the stream.
// It is the "recur automatically" mode of the paper's persistent
// connections, with the recurrence cadence owned by the supplier.
func (c *Connection) RunProducer(rank int, next func(epoch uint64) []float64) error {
	if c.dir != AsSource {
		return fmt.Errorf("core: RunProducer on a destination connection")
	}
	for {
		frame := next(c.seqs[rank])
		if frame == nil {
			return c.CloseStream(rank)
		}
		if _, err := c.DataReady(rank, frame); err != nil {
			return err
		}
	}
}

// RunConsumer drives a persistent destination rank: sink receives each
// frame (every epoch for SyncEachFrame, the newest for FreeRunning) and
// returns false to stop early. RunConsumer returns nil when the source
// closes the stream.
func (c *Connection) RunConsumer(rank int, sink func(epoch uint64, frame []float64) bool) error {
	if c.dir != AsDestination {
		return fmt.Errorf("core: RunConsumer on a source connection")
	}
	buf := make([]float64, c.local.Template.LocalCount(rank))
	for {
		epoch, err := c.DataReady(rank, buf)
		if errors.Is(err, ErrChannelClosed) {
			return nil
		}
		if err != nil {
			return err
		}
		if !sink(epoch, buf) {
			return nil
		}
	}
}

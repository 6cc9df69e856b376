// Remote mailbox path: ConnectPeer couples two Worlds over a
// transport.Conn (typically an internal/session connection, so physical
// link failures are absorbed below this layer) by binding a set of world
// ranks to the peer. Sends to a bound rank are encoded and forwarded on
// the connection instead of queued locally; frames arriving from the
// peer are decoded and delivered into local mailboxes. When the
// connection reports a permanent failure — for a session conn, after its
// redial budget is exhausted and the circuit opens with
// session.ErrPeerLost — every bound rank is Killed, which is exactly the
// signal the fenced transfer policies (FailStrict/FailRedistribute) and
// the PRMI failure model are built on.
//
// Both sides number ranks in one unified space: with nA local ranks on
// side A and nB on side B, side A builds a world of nA+nB ranks and binds
// [nA, nA+nB) to the peer, while side B builds the mirror image. Group
// traffic then matches across the wire through SharedGroup, which lets
// both sides agree on a communicator identity explicitly (ordinary Group
// identities are process-local counters and would collide blindly).
//
// Payloads cross the wire through a small codec registry. Plain values
// (the wire.PutValue set, plus int round-tripping) need no registration;
// packages whose message structs cross worlds register a RemoteCodec for
// them (redist's transfer messages, core's heartbeat pings). Sub and
// Split are NOT remote-safe: they pass *Comm handles as payloads, which
// are meaningless in another process image — build cross-world groups
// with SharedGroup instead.
package comm

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

var (
	mRemoteForwarded = obs.Default().Counter("comm.remote_msgs_forwarded")
	mRemoteDelivered = obs.Default().Counter("comm.remote_msgs_delivered")
	mRemotePeersLost = obs.Default().Counter("comm.remote_peers_lost")
)

// RemoteCodec encodes and decodes one family of payload values for the
// remote mailbox path. Encode reports whether it handled v (false lets
// the next codec try, ending at the built-in generic codec); it must not
// write anything when it returns false. Decode reverses Encode.
type RemoteCodec struct {
	Encode func(e *wire.Encoder, v any) bool
	Decode func(d *wire.Decoder) (any, error)
}

// codecGeneric is the built-in tag: wire.PutValue's dynamic set, with an
// int sub-tag so int payloads round-trip as int rather than int64.
const codecGeneric = 0

var remoteCodecs struct {
	mu    sync.RWMutex
	byTag map[byte]RemoteCodec
	order []byte // Encode trial order; generic always last
}

// RegisterRemotePayload registers a codec for payload values crossing
// ConnectPeer links under the given tag. Tags are process-global and must
// match on both peers; tag 0 is the built-in generic codec. Intended to
// be called from package init — registering a tag twice panics.
func RegisterRemotePayload(tag byte, c RemoteCodec) {
	if tag == codecGeneric {
		panic("comm: remote payload tag 0 is reserved for the generic codec")
	}
	if c.Encode == nil || c.Decode == nil {
		panic("comm: remote payload codec needs both Encode and Decode")
	}
	remoteCodecs.mu.Lock()
	defer remoteCodecs.mu.Unlock()
	if remoteCodecs.byTag == nil {
		remoteCodecs.byTag = map[byte]RemoteCodec{}
	}
	if _, dup := remoteCodecs.byTag[tag]; dup {
		panic(fmt.Sprintf("comm: remote payload tag %d registered twice", tag))
	}
	remoteCodecs.byTag[tag] = c
	remoteCodecs.order = append(remoteCodecs.order, tag)
}

// encodeRemotePayload writes [codec tag][payload] using the first
// registered codec that claims v, falling back to the generic codec.
// Unsupported payload types panic (same contract as wire.PutValue): a
// payload silently dropped at the boundary would be a deadlock upstream.
func encodeRemotePayload(e *wire.Encoder, v any) {
	remoteCodecs.mu.RLock()
	for _, tag := range remoteCodecs.order {
		c := remoteCodecs.byTag[tag]
		e.PutByte(tag)
		if c.Encode(e, v) {
			remoteCodecs.mu.RUnlock()
			return
		}
		// Undo the speculative tag byte (Encode wrote nothing).
		e.Unwrite(1)
	}
	remoteCodecs.mu.RUnlock()
	e.PutByte(codecGeneric)
	putGenericValue(e, v)
}

// putGenericValue wraps wire.PutValue with sub-tags so that int — which
// the wire contract deliberately flattens to int64 — round-trips as int
// at any nesting depth. Mailbox consumers type-assert their payloads, so
// an int that came back as int64 would panic the receiving rank.
func putGenericValue(e *wire.Encoder, v any) {
	switch x := v.(type) {
	case int:
		e.PutByte(1)
		e.PutInt(x)
	case []any:
		e.PutByte(2)
		e.PutUvarint(uint64(len(x)))
		for _, el := range x {
			putGenericValue(e, el)
		}
	default:
		e.PutByte(0)
		e.PutValue(v)
	}
}

func getGenericValue(d *wire.Decoder) (any, error) {
	switch sub := d.Byte(); sub {
	case 1:
		return d.Int(), d.Err()
	case 2:
		n := int(d.Uvarint())
		if d.Err() != nil {
			return nil, d.Err()
		}
		// Each element consumes at least one byte, so a hostile length
		// prefix cannot force an allocation beyond the buffer size.
		if n > d.Remaining() {
			return nil, fmt.Errorf("comm: remote payload: list length %d exceeds frame", n)
		}
		out := make([]any, 0, n)
		for i := 0; i < n; i++ {
			v, err := getGenericValue(d)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case 0:
		v := d.Value()
		return v, d.Err()
	default:
		return nil, fmt.Errorf("comm: remote payload: unknown generic sub-tag %d", sub)
	}
}

func decodeRemotePayload(d *wire.Decoder) (any, error) {
	tag := d.Byte()
	if tag == codecGeneric {
		return getGenericValue(d)
	}
	remoteCodecs.mu.RLock()
	c, ok := remoteCodecs.byTag[tag]
	remoteCodecs.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("comm: remote payload: no codec registered for tag %d", tag)
	}
	return c.Decode(d)
}

// RemotePeer is one ConnectPeer binding: a connection plus the world
// ranks that live on the other side of it.
type RemotePeer struct {
	w     *World
	conn  transport.Conn
	ranks []int

	closed atomic.Bool
	done   chan struct{}
	errMu  sync.Mutex
	err    error
	reg    registry // receives posted ahead of their frames (Post)
}

// errPeerDetached marks a deliberate Close, distinguishing it from a
// transport failure in Err.
var errPeerDetached = errors.New("comm: remote peer closed")

// ConnectPeer binds the given world ranks to conn: messages sent to them
// are forwarded over the connection, and frames arriving on it are
// delivered into this world's local mailboxes. The bound ranks must
// already exist (NewWorld or Grow) and must be bound at most once; the
// peer must run the mirror-image ConnectPeer over the same connection.
//
// ConnectPeer installs the binding like Grow installs new ranks: sends
// racing with it may still use the previous state and queue locally, so
// connect peers during setup, before the rank goroutines start.
//
// When conn.Recv or a forwarding Send reports an error, the failure is
// permanent by construction (a session conn only errors after its
// reconnect budget is spent) and every bound rank is Killed, handing the
// death to the liveness and fencing layers. Close detaches deliberately
// with the same rank-killing semantics.
func (w *World) ConnectPeer(conn transport.Conn, ranks []int) *RemotePeer {
	rp := &RemotePeer{
		w:     w,
		conn:  conn,
		ranks: append([]int(nil), ranks...),
		done:  make(chan struct{}),
	}
	rp.reg.cond = sync.NewCond(&rp.reg.mu)
	if pc, ok := conn.(placingConn); ok {
		pc.SetPlacer(&rp.reg)
		rp.reg.placing = true
	}
	w.growMu.Lock()
	cur := w.st()
	next := &worldState{
		boxes:  cur.boxes,
		dead:   cur.dead,
		remote: make([]*RemotePeer, len(cur.remote)),
	}
	copy(next.remote, cur.remote)
	for _, r := range rp.ranks {
		if r < 0 || r >= len(cur.boxes) {
			w.growMu.Unlock()
			panic(fmt.Sprintf("comm: ConnectPeer rank %d outside world of size %d", r, len(cur.boxes)))
		}
		if next.remote[r] != nil {
			w.growMu.Unlock()
			panic(fmt.Sprintf("comm: rank %d already bound to a remote peer", r))
		}
		next.remote[r] = rp
	}
	w.state.Store(next)
	w.growMu.Unlock()
	go rp.serve()
	return rp
}

// Ranks returns the world ranks bound to this peer.
func (rp *RemotePeer) Ranks() []int { return append([]int(nil), rp.ranks...) }

// Err returns the error that tore the binding down, nil while healthy.
func (rp *RemotePeer) Err() error {
	rp.errMu.Lock()
	defer rp.errMu.Unlock()
	return rp.err
}

// Done is closed once the binding is torn down and the bound ranks are
// Killed.
func (rp *RemotePeer) Done() <-chan struct{} { return rp.done }

// Close detaches the peer: the connection is closed and the bound ranks
// are Killed (the peer's mirror binding sees the close as a permanent
// loss and does the same on its side).
func (rp *RemotePeer) Close() { rp.fail(errPeerDetached) }

// fail tears the binding down exactly once: close the connection (which
// unblocks serve), record the cause, and Kill every bound rank so the
// failure surfaces through the normal dead-rank machinery.
func (rp *RemotePeer) fail(cause error) {
	if rp.closed.Swap(true) {
		return
	}
	rp.errMu.Lock()
	rp.err = cause
	rp.errMu.Unlock()
	rp.conn.Close()
	if !errors.Is(cause, errPeerDetached) {
		mRemotePeersLost.Inc()
	}
	for _, r := range rp.ranks {
		rp.w.Kill(r)
	}
}

// sendBatch is one handle's outgoing traffic to remote peers: each message
// encoded — its head into one reused encoder and copied behind the heads
// queued before it, its payload lent — and queued until it is handed to
// its peer's connection. Uncorked, a message leaves as soon as it is
// queued, a batch of one; between Cork and Flush the queue grows, and
// Flush hands each peer its queue in one SendBatch — unless it reaches
// batchBytes first.
type sendBatch struct {
	mu     sync.Mutex
	corked bool
	enc    *wire.Encoder // one message's head at a time
	heads  []byte        // the queued messages' heads, back to back
	queue  []queued
	bytes  int           // head and payload bytes queued
	segs   [][]byte      // one SendBatch's head and payload segments
	msgs   []net.Buffers // one SendBatch's messages, cut from segs
	loans  []wire.Loan   // one SendBatch's loans, nil where a message has none
}

// batchBytes is where a corked batch stops growing and goes out at once:
// past it a batch no longer arrives with one read of the receiving TCP
// conn's read-ahead buffer, and its bytes, not its system calls, set its
// cost. Holding more would only delay the first message and keep several
// packed buffers resident — a 2 MiB bulk message still leaves alone, as
// soon as it is posted.
const batchBytes = 64 << 10

// queued is one encoded message waiting in a sendBatch.
type queued struct {
	rp      *RemotePeer
	end     int       // the head is heads[previous end : end]
	payload []byte    // the lent payload, owned until sent
	loan    wire.Loan // or the payload's loan, held until sent
	bytes   int       // payload bytes
}

// Cork starts a send batch on this handle. Until Flush, the messages it
// sends to ranks bound to a remote peer (ConnectPeer) are encoded and
// queued instead of written, and Flush hands each peer its queue in one
// connection call — over a session, one writev of whole frames, each
// still its own frame with its own sequence number. A batch that reaches
// batchBytes goes out at once and the handle stays corked. Messages to
// in-process ranks are delivered at once as always, and one handle's
// messages keep their order per destination. A corked handle must Flush
// before it waits on anything its queued messages may cause: the transfer
// engine flushes when a round is posted, PRMI after its call and reply
// loops.
func (c *Comm) Cork() {
	c.batch.mu.Lock()
	c.batch.corked = true
	c.batch.mu.Unlock()
}

// Flush sends the messages held since Cork and ends the batch.
func (c *Comm) Flush() {
	b := &c.batch
	b.mu.Lock()
	b.corked = false
	b.flushLocked()
	b.mu.Unlock()
}

// add queues one message for the peer, and sends the queue unless the
// batch is corked. Wire layout:
// [from uvarint][to uvarint][tag i64][gid u64][codec tag + payload].
//
// A codec that lends its bulk payload (wire.LendPayload; the xferMsg and
// prmi.Msg codecs do) leaves that slice out of the head encoding, and the
// frame goes out as head + lent payload with ownership of the payload
// buffer transferred to the conn. No payload byte is copied between the
// pack buffer and the socket. A codec that lends views of the sender's
// memory instead (wire.PutLoan; a transfer's remote chunk with long runs
// does) hands the loan to the conn the same way: no payload byte is
// copied before the socket.
func (b *sendBatch) add(rp *RemotePeer, from, to, tag int, gid uint64, payload any) {
	if rp.closed.Load() {
		drop(payload)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.enc == nil {
		b.enc = wire.NewEncoder(nil)
	}
	e := b.enc
	e.Reset()
	e.PutUvarint(uint64(from))
	e.PutUvarint(uint64(to))
	e.PutInt64(int64(tag))
	e.PutUint64(gid)
	encodeRemotePayload(e, payload)
	head, lent := e.Vector()
	q := queued{rp: rp, payload: lent, loan: e.Loan(), bytes: len(lent)}
	if q.loan != nil {
		for _, s := range q.loan.Segs() {
			q.bytes += len(s)
		}
	}
	b.heads = append(b.heads, head...)
	q.end = len(b.heads)
	b.queue = append(b.queue, q)
	if b.bytes += len(head) + q.bytes; !b.corked || b.bytes >= batchBytes {
		b.flushLocked()
	}
}

// flushLocked hands each peer its queued messages, in queue order, with
// one SendBatch, which takes their payloads over; the caller holds b.mu.
func (b *sendBatch) flushLocked() {
	for i := range b.queue {
		rp := b.queue[i].rp
		if rp == nil {
			continue // sent with an earlier message's peer
		}
		lent := false
		for j := i; j < len(b.queue); j++ {
			if q := &b.queue[j]; q.rp == rp {
				start := 0
				if j > 0 {
					start = b.queue[j-1].end
				}
				// A lent message is its head alone, the loan following.
				b.segs = append(b.segs, b.heads[start:q.end])
				if q.loan == nil {
					b.segs = append(b.segs, q.payload)
				}
				b.loans = append(b.loans, q.loan)
				lent = lent || q.loan != nil
				q.rp = nil
			}
		}
		for k, m := 0, 0; k < len(b.segs); m++ {
			n := 2
			if b.loans[m] != nil {
				n = 1
			}
			b.msgs = append(b.msgs, b.segs[k:k+n:k+n])
			k += n
		}
		loans := b.loans
		if !lent {
			loans = nil
		}
		rp.send(b.msgs, loans)
		clear(b.segs)
		clear(b.msgs)
		clear(b.loans)
		b.segs, b.msgs, b.loans = b.segs[:0], b.msgs[:0], b.loans[:0]
	}
	clear(b.queue)
	b.queue, b.heads, b.bytes = b.queue[:0], b.heads[:0], 0
}

// send hands one batch of messages to the connection, which owns their
// payloads and holds their loans from then on; a failed send tears the
// binding down. The connection orders concurrent batches itself (a
// session sequences and writes frames in one order), so nothing here
// serializes them.
func (rp *RemotePeer) send(msgs []net.Buffers, loans []wire.Loan) {
	if err := rp.conn.SendBatch(msgs, true, loans); err != nil {
		rp.fail(err)
		return
	}
	mRemoteForwarded.Add(uint64(len(msgs)))
}

// serve is the receive pump: decode inbound frames into local mailboxes
// until the connection dies, then tear the binding down.
func (rp *RemotePeer) serve() {
	defer close(rp.done)
	for {
		msg, err := rp.conn.Recv()
		if err != nil {
			rp.fail(err)
			return
		}
		if err := rp.deliver(msg); err != nil {
			rp.fail(err)
			return
		}
	}
}

// deliver decodes one received frame into a local mailbox. The frame is
// returned to the pool here, unless the payload codec kept it (a decoded
// message viewing its bytes in place owns the frame from then on).
//
// A frame whose payload tail was placed (see Post) arrives without it;
// the decoder is told how many bytes the tail had.
func (rp *RemotePeer) deliver(buf []byte) error {
	d := wire.NewDecoder(buf)
	placed, lost := rp.reg.landed(buf)
	d.SetPlaced(placed)
	defer func() {
		rp.reg.delivered(buf)
		if !d.Kept() {
			bufpool.PutFrame(buf)
		}
	}()
	if lost {
		mDroppedDead.Inc()
		return nil
	}
	from := int(d.Uvarint())
	to := int(d.Uvarint())
	tag := int(d.Int64())
	gid := d.Uint64()
	if d.Err() != nil {
		return fmt.Errorf("comm: corrupt remote frame header: %w", d.Err())
	}
	st := rp.w.st()
	if to < 0 || to >= len(st.boxes) || st.remote[to] != nil {
		return fmt.Errorf("comm: remote frame addressed to rank %d, which is not local", to)
	}
	if from < 0 || from >= len(st.boxes) {
		return fmt.Errorf("comm: remote frame from out-of-world rank %d", from)
	}
	// Dead ranks neither produce nor consume traffic (the mirror of the
	// send-side check); the payload is not even decoded.
	if st.dead[to].Load() || st.dead[from].Load() {
		mDroppedDead.Inc()
		return nil
	}
	payload, err := decodeRemotePayload(d)
	if err != nil {
		return err
	}
	if d.Err() != nil {
		return fmt.Errorf("comm: corrupt remote payload: %w", d.Err())
	}
	st.boxes[to].put(message{from: from, tag: tag, gid: gid, payload: payload}, st.dead[to])
	mRemoteDelivered.Inc()
	return nil
}

// sharedGroupBit marks communicator identities chosen explicitly through
// SharedGroup, keeping them disjoint from the process-local counter that
// numbers ordinary groups.
const sharedGroupBit = uint64(1) << 63

// SharedGroup creates a communicator whose identity is agreed explicitly:
// both worlds of a ConnectPeer pair call SharedGroup with the same id and
// the same rank list (in the unified rank space), and messages match
// across the wire because the group identity travels with each frame.
// One handle per member is returned in group order, as with Group; each
// side uses the handles of its local ranks and ignores the rest.
func (w *World) SharedGroup(id uint64, ranks []int) []*Comm {
	if id&sharedGroupBit != 0 {
		panic(fmt.Sprintf("comm: SharedGroup id %#x has the reserved high bit set", id))
	}
	size := w.Size()
	g := &group{
		world: w,
		ranks: append([]int(nil), ranks...),
		gid:   id | sharedGroupBit,
	}
	cs := make([]*Comm, len(ranks))
	for i, r := range ranks {
		if r < 0 || r >= size {
			panic(fmt.Sprintf("comm: rank %d outside world of size %d", r, size))
		}
		cs[i] = &Comm{group: g, rank: i}
	}
	return cs
}

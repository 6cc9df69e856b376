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

	wmu    sync.Mutex // serializes Send framing on conn
	closed atomic.Bool
	done   chan struct{}
	errMu  sync.Mutex
	err    error
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

// forward ships one message to the peer. Wire layout:
// [from uvarint][to uvarint][tag i64][gid u64][codec tag + payload].
//
// A codec that lends its bulk payload (wire.LendPayload; the xferMsg and
// prmi.Msg codecs do) leaves that slice out of the header encoding, and
// the frame goes out as header + lent payload with ownership of the
// payload buffer transferred to the conn. No payload byte is copied
// between the pack buffer and the socket.
func (rp *RemotePeer) forward(from, to, tag int, gid uint64, payload any) {
	if rp.closed.Load() {
		drop(payload)
		return
	}
	e := wire.NewEncoder(nil)
	e.PutUvarint(uint64(from))
	e.PutUvarint(uint64(to))
	e.PutInt64(int64(tag))
	e.PutUint64(gid)
	encodeRemotePayload(e, payload)
	rp.wmu.Lock()
	err := rp.conn.SendOwned(e.Vector())
	rp.wmu.Unlock()
	if err != nil {
		rp.fail(err)
		return
	}
	mRemoteForwarded.Inc()
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
func (rp *RemotePeer) deliver(buf []byte) error {
	d := wire.NewDecoder(buf)
	defer func() {
		if !d.Kept() {
			bufpool.PutFrame(buf)
		}
	}()
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

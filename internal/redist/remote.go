// Remote payload codecs: what lets a redistribution span two comm.Worlds
// coupled by comm.ConnectPeer. The transfer engine's messages are plain
// in-process structs; when a destination rank lives across a connection,
// comm's remote path serializes them with the codecs registered here and
// rebuilds them — pool accounting included — on the far side.
//
// Remote payload tags used across the module (the registry is
// process-global, so tags must be unique and identical on both peers):
//
//	0 — comm built-in generic (wire.PutValue types and int)
//	1 — redist *xferMsg (this file)
//	2 — redist linRequest (this file)
//	3 — core heartbeatPing (internal/core)
//	4 — prmi *Msg (internal/prmi/message.go)
package redist

import (
	"fmt"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/linear"
	"mxn/internal/wire"
)

func init() {
	comm.RegisterRemotePayload(1, comm.RemoteCodec{Encode: encodeXferMsg, Decode: decodeXferMsg})
	comm.RegisterRemotePayload(2, comm.RemoteCodec{Encode: encodeLinRequest, Decode: decodeLinRequest})
}

// encodeXferMsg serializes a transfer message and retires it: comm.Send
// transfers ownership to the receiver, and for a remote destination the
// wire is the receiver — recycling here balances the newMsg accounting
// exactly as the far side's decode re-opens it.
//
// The element bytes are the final field so that, on a borrow-mode
// encoder (an OwnedSender connection), they can leave the process as a
// borrowed payload segment instead of being copied into the frame
// encoding: ownership of the pooled data buffer passes to the
// connection, which returns it to the pool once the peer has
// acknowledged the frame. The wire bytes are identical either way.
func encodeXferMsg(e *wire.Encoder, v any) bool {
	m, ok := v.(*xferMsg)
	if !ok {
		return false
	}
	e.PutUint64(m.epoch)
	e.PutByte(byte(m.kind))
	e.PutUvarint(uint64(m.elems))
	e.PutBool(m.ack)
	putLinearSet(e, m.have)
	if e.Borrowing() && m.done == nil && len(m.data) > 0 {
		// Lend the pooled payload to the connection instead of copying:
		// detach it before recycle (which must not Put it) and close the
		// in-flight accounting here, exactly where the copying path's
		// recycle would.
		data := m.data
		m.data = nil
		bytesInFlight.Add(-int64(len(data)))
		recycle(m)
		e.PutBytesRef(data)
		return true
	}
	// Copying path: plain encoders, and the defensive case of a borrowed
	// source view (m.done != nil) that raced its way to a remote peer —
	// the view's bytes are copied so the caller's slice is never lent
	// across the process boundary.
	e.PutBytes(m.data)
	recycle(m)
	return true
}

func decodeXferMsg(d *wire.Decoder) (any, error) {
	m := getMsg()
	m.epoch = d.Uint64()
	m.kind = dad.ElemKind(d.Byte())
	m.elems = int(d.Uvarint())
	m.ack = d.Bool()
	m.have = getLinearSet(d)
	// Borrow the payload view from the frame buffer — the copy below is
	// the only one on the receive path (Decoder.Bytes would add a second).
	raw := d.BorrowBytes()
	if d.Err() != nil {
		// m.data is still nil here, so recycle is pure pool bookkeeping.
		recycle(m)
		return nil, fmt.Errorf("redist: corrupt remote transfer message: %w", d.Err())
	}
	// Copy the payload out of the frame buffer into a pooled buffer, so
	// the receiver's recycle returns a proper size-classed buffer and the
	// in-flight accounting opened here is closed there.
	m.data = bufpool.Get(len(raw))
	copy(m.data, raw)
	addInFlight(len(m.data))
	return m, nil
}

func encodeLinRequest(e *wire.Encoder, v any) bool {
	req, ok := v.(linRequest)
	if !ok {
		return false
	}
	e.PutUvarint(uint64(req.dstRank))
	e.PutUint64(req.epoch)
	putLinearSet(e, req.need)
	return true
}

func decodeLinRequest(d *wire.Decoder) (any, error) {
	var req linRequest
	req.dstRank = int(d.Uvarint())
	req.epoch = d.Uint64()
	req.need = getLinearSet(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("redist: corrupt remote linear request: %w", d.Err())
	}
	return req, nil
}

func putLinearSet(e *wire.Encoder, s linear.Set) {
	e.PutUvarint(uint64(len(s)))
	for _, iv := range s {
		e.PutInt64(int64(iv.Lo))
		e.PutInt64(int64(iv.Hi))
	}
}

func getLinearSet(d *wire.Decoder) linear.Set {
	n := int(d.Uvarint())
	if n <= 0 || d.Err() != nil {
		return nil
	}
	// Grow by append rather than pre-sizing with the untrusted length
	// prefix: each appended interval consumed 16 real bytes, so a hostile
	// n poisons the decoder instead of forcing a huge allocation.
	var s linear.Set
	for i := 0; i < n && d.Err() == nil; i++ {
		lo := int(d.Int64())
		hi := int(d.Int64())
		s = append(s, linear.Interval{Lo: lo, Hi: hi})
	}
	if d.Err() != nil {
		return nil
	}
	return s
}

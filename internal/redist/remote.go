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
// The element bytes are the final field, lent to the connection
// (wire.LendPayload): the message's own pooled buffer as is, a received
// frame's view as a pooled copy. Either way no element byte is copied
// into the frame encoding, and the elements start 8-byte aligned in the
// wire bytes, which is what lets the far side unpack straight from the
// received frame. A lent chunk never comes here: the engine lends only to
// ranks of its own world, and ConnectPeer binds ranks before they run.
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
	owned := m.lender == nil && m.frame == nil
	e.LendPayload(m.data, owned)
	if owned {
		// The connection returns the buffer now: detach it before recycle
		// (which must not Put it) and close the in-flight accounting here.
		bytesInFlight.Add(-int64(len(m.data)))
		m.data = nil
	}
	recycle(m)
	return true
}

// decodeXferMsg rebuilds a transfer message that views its elements in
// the received frame and owns the frame (recycle returns it), so no
// payload byte is copied between the socket and unpack.
func decodeXferMsg(d *wire.Decoder) (any, error) {
	m := getMsg()
	m.epoch = d.Uint64()
	m.kind = dad.ElemKind(d.Byte())
	m.elems = int(d.Uvarint())
	m.ack = d.Bool()
	m.have = getLinearSet(d)
	data, frame := d.KeepBytesRef()
	if d.Err() != nil {
		// m.data is still nil here, so recycle is pure pool bookkeeping.
		recycle(m)
		return nil, fmt.Errorf("redist: corrupt remote transfer message: %w", d.Err())
	}
	m.data, m.frame = data, frame
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

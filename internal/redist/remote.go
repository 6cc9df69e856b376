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
// received frame. A remote lent chunk (remotelend.go) lends its views of
// the sender's source instead (wire.PutLoan) and is not retired here: the
// connection releases it. An in-process lent chunk never comes here: the
// engine lends those only to ranks of its own world, and ConnectPeer
// binds ranks before they run.
func encodeXferMsg(e *wire.Encoder, v any) bool {
	m, ok := v.(*xferMsg)
	if !ok {
		return false
	}
	putXferHead(e, m.epoch, m.kind, m.elems, m.ack, m.have)
	if m.segs != nil {
		e.PutLoan(m, m.loanBytes)
		return true
	}
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

// putXferHead writes a transfer message's fields ahead of its payload.
func putXferHead(e *wire.Encoder, epoch uint64, kind dad.ElemKind, elems int, ack bool, have linear.Set) {
	e.PutUint64(epoch)
	e.PutByte(byte(kind))
	e.PutUvarint(uint64(elems))
	e.PutBool(ack)
	putLinearSet(e, have)
}

// decodeXferMsg rebuilds a transfer message that views its elements in
// the received frame and owns the frame (recycle returns it), so no
// payload byte is copied between the socket and unpack. A placed message
// (comm.Post) views only the part of its payload read before its posting
// took the frame; placedBytes is the rest, already in its destination.
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
	m.data, m.frame, m.placedBytes = data, frame, d.Placed()
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

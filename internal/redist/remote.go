// Remote payload codecs: what lets a redistribution span two comm.Worlds
// coupled by comm.ConnectPeer. The transfer engine's messages are plain
// in-process structs; when a destination rank lives across a connection,
// comm's remote path serializes them with the codec here and
// rebuilds them — pool accounting included — on the far side.
package redist

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/wire"
)

func init() { comm.RegisterRemoteDecoder(comm.CodecXfer, decodeXferMsg) }

// RemoteTag implements comm.Remote.
func (m *xferMsg) RemoteTag() byte { return comm.CodecXfer }

// PutRemote serializes a transfer message and retires it: comm.Send
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
func (m *xferMsg) PutRemote(e *wire.Encoder) {
	putXferHead(e, m.epoch, m.kind, m.elems, m.mark)
	if m.segs != nil {
		e.PutLoan(m, m.loanBytes)
		return
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
}

// putXferHead writes a transfer message's fields ahead of its payload.
func putXferHead(e *wire.Encoder, epoch uint64, kind dad.ElemKind, elems int, mark byte) {
	e.PutUint64(epoch)
	e.PutByte(byte(kind))
	e.PutUvarint(uint64(elems))
	e.PutByte(mark)
}

// decodeXferMsg rebuilds a transfer message that views its elements in
// the received frame and owns the frame (recycle returns it), so no
// payload byte is copied between the socket and unpack. A placed message
// (comm.Post) has its payload in its destination already: it views none,
// and placedBytes says how much there is.
func decodeXferMsg(d *wire.Decoder) (any, error) {
	m := getMsg()
	m.epoch = d.Uint64()
	m.kind = dad.ElemKind(d.Byte())
	m.elems = int(d.Uvarint())
	m.mark = d.Byte()
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

// Session frame codec. Every message a session.Conn puts on the inner
// transport is one of five frames. The fixed fields are a trailer ending
// in the kind byte — little-endian, no varints, so the data trailer can be
// written in place into a pooled buffer without measuring first — and any
// variable-length part comes first:
//
//	hello   [session id u64][last delivered u64][flags u8][kind u8]
//	welcome [session id u64][last delivered u64][kind u8]
//	reject  [reason bytes...][session id u64][kind u8]
//	data    [payload bytes...][seq u64][ack u64][kind u8]
//	ack     [ack u64][kind u8]
//
// Because the payload leads, a received data frame's payload is a prefix
// of the frame buffer the transport handed up: the session passes the
// frame on to its own receiver without copying, and that receiver returns
// it to the pool like any other frame (bufpool.PutFrame accepts a prefix).
//
// hello flows dialer→listener as the first frame of every physical
// connection; welcome (or reject) is the listener's sole reply before data
// may flow. "last delivered" is the cumulative sequence number of the
// highest in-order frame the sender of the handshake frame has delivered
// to its application side; the peer trims its replay buffer to it and
// re-sends everything after it. data.ack piggybacks the same cumulative
// acknowledgement on every data frame; ack carries it alone when traffic
// is one-sided.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	kindHello   byte = 0x01
	kindWelcome byte = 0x02
	kindReject  byte = 0x03
	kindData    byte = 0x04
	kindAck     byte = 0x05
)

const (
	helloLen       = 8 + 8 + 1 + 1
	welcomeLen     = 8 + 8 + 1
	rejectMin      = 8 + 1
	dataTrailerLen = 8 + 8 + 1
	ackLen         = 8 + 1

	// flagResume marks a hello that resumes an established session (as
	// opposed to opening a new one). A listener that does not know the
	// session must reject a resume: inventing a fresh session would
	// silently void the exactly-once guarantee.
	flagResume byte = 1 << 0
)

// ErrBadFrame reports a session frame that does not decode.
var ErrBadFrame = errors.New("session: malformed frame")

// frame is the decoded form of any session frame. Fields are populated
// according to kind; payload aliases the input buffer.
type frame struct {
	kind    byte
	id      uint64 // hello, welcome, reject
	seq     uint64 // data
	ack     uint64 // data, ack; hello/welcome: last delivered
	resume  bool   // hello
	payload []byte // data payload (a prefix of the input); reject reason
}

// decodeFrame parses one session frame. It never panics and never
// allocates beyond the returned struct: payload aliases b.
func decodeFrame(b []byte) (frame, error) {
	if len(b) == 0 {
		return frame{}, fmt.Errorf("%w: empty", ErrBadFrame)
	}
	switch kind := b[len(b)-1]; kind {
	case kindHello:
		if len(b) != helloLen {
			return frame{}, fmt.Errorf("%w: hello length %d", ErrBadFrame, len(b))
		}
		if b[16]&^flagResume != 0 {
			return frame{}, fmt.Errorf("%w: unknown hello flags %#02x", ErrBadFrame, b[16])
		}
		return frame{
			kind:   kindHello,
			id:     binary.LittleEndian.Uint64(b),
			ack:    binary.LittleEndian.Uint64(b[8:]),
			resume: b[16]&flagResume != 0,
		}, nil
	case kindWelcome:
		if len(b) != welcomeLen {
			return frame{}, fmt.Errorf("%w: welcome length %d", ErrBadFrame, len(b))
		}
		return frame{
			kind: kindWelcome,
			id:   binary.LittleEndian.Uint64(b),
			ack:  binary.LittleEndian.Uint64(b[8:]),
		}, nil
	case kindReject:
		if len(b) < rejectMin {
			return frame{}, fmt.Errorf("%w: reject length %d", ErrBadFrame, len(b))
		}
		n := len(b) - rejectMin
		return frame{
			kind:    kindReject,
			id:      binary.LittleEndian.Uint64(b[n:]),
			payload: b[:n],
		}, nil
	case kindData:
		if len(b) < dataTrailerLen {
			return frame{}, fmt.Errorf("%w: data length %d", ErrBadFrame, len(b))
		}
		n := len(b) - dataTrailerLen
		return frame{
			kind:    kindData,
			seq:     binary.LittleEndian.Uint64(b[n:]),
			ack:     binary.LittleEndian.Uint64(b[n+8:]),
			payload: b[:n],
		}, nil
	case kindAck:
		if len(b) != ackLen {
			return frame{}, fmt.Errorf("%w: ack length %d", ErrBadFrame, len(b))
		}
		return frame{kind: kindAck, ack: binary.LittleEndian.Uint64(b)}, nil
	default:
		return frame{}, fmt.Errorf("%w: unknown kind %#02x", ErrBadFrame, kind)
	}
}

// encodeHello appends a hello frame to dst.
func encodeHello(dst []byte, id, delivered uint64, resume bool) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, delivered)
	var flags byte
	if resume {
		flags |= flagResume
	}
	return append(dst, flags, kindHello)
}

// encodeWelcome appends a welcome frame to dst.
func encodeWelcome(dst []byte, id, delivered uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint64(dst, delivered)
	return append(dst, kindWelcome)
}

// encodeReject appends a reject frame to dst.
func encodeReject(dst []byte, id uint64, reason string) []byte {
	dst = append(dst, reason...)
	dst = binary.LittleEndian.AppendUint64(dst, id)
	return append(dst, kindReject)
}

// putDataTrailer writes the data frame trailer into buf[:dataTrailerLen];
// the payload precedes it. In-place so the send path can fill a pooled
// buffer without a second copy or an allocation.
func putDataTrailer(buf []byte, seq, ack uint64) {
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint64(buf[8:], ack)
	buf[16] = kindData
}

// putAck writes an ack frame into buf[:ackLen].
func putAck(buf []byte, ack uint64) {
	binary.LittleEndian.PutUint64(buf, ack)
	buf[8] = kindAck
}

package session

import (
	"bytes"
	"testing"
)

// dataFrame builds a data frame the way the send path does: payload, then
// the trailer written in place.
func dataFrame(payload string, seq, ack uint64) []byte {
	b := make([]byte, len(payload)+dataTrailerLen)
	putDataTrailer(b[copy(b, payload):], seq, ack)
	return b
}

// FuzzSessionFrame hammers the handshake/ack/data codec: decodeFrame
// must never panic on arbitrary bytes, any frame that decodes must
// re-encode to exactly the input (the codec is canonical — no two wire
// forms decode to the same frame), and a data payload is a prefix of the
// frame, so the receiver can hand the frame buffer up without copying.
func FuzzSessionFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeHello(nil, 0x1122334455667788, 42, true))
	f.Add(encodeHello(nil, 1, 0, false))
	f.Add(encodeWelcome(nil, 7, 99))
	f.Add(encodeReject(nil, 7, "unknown session"))
	f.Add(encodeReject(nil, 0, ""))
	f.Add(dataFrame("hello", 3, 2))
	ack := make([]byte, ackLen)
	putAck(ack, 12)
	f.Add(ack)
	f.Add([]byte{0x00, 0xff})
	f.Add([]byte{kindData})

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b)
		if err != nil {
			return
		}
		var re []byte
		switch fr.kind {
		case kindHello:
			re = encodeHello(nil, fr.id, fr.ack, fr.resume)
		case kindWelcome:
			re = encodeWelcome(nil, fr.id, fr.ack)
		case kindReject:
			re = encodeReject(nil, fr.id, string(fr.payload))
		case kindData:
			re = dataFrame(string(fr.payload), fr.seq, fr.ack)
			if len(fr.payload) > 0 && &fr.payload[0] != &b[0] {
				t.Fatalf("data payload is not a prefix of the frame")
			}
		case kindAck:
			re = make([]byte, ackLen)
			putAck(re, fr.ack)
		default:
			t.Fatalf("decodeFrame returned unknown kind %#02x", fr.kind)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  % x\n out % x", b, re)
		}
	})
}

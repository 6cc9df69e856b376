package prmi

import (
	"fmt"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/sidl"
	"mxn/internal/wire"
)

// Wire message kinds exchanged over a Link: the first head byte.
const (
	msgCall byte = iota + 1
	msgReply
	msgShutdown
	// msgDetach announces that a caller rank is leaving the cohort (an
	// online shrink): the endpoint stops expecting its shutdown. Links
	// deliver each caller's messages in FIFO order, so by the time a
	// detach is dispatched every call that caller ever sent has been
	// serviced.
	msgDetach
)

// Msg is one PRMI message in flight: a small encoded head (kind byte plus
// header fields) and, for messages that carry parallel data, a payload of
// packed little-endian element bytes — every fragment of the message,
// concatenated in parameter order. Whoever holds a Msg owns it: Link.Send
// takes it over, Link.Recv hands it out, the final holder calls Release.
//
// A message built in this process owns bufpool buffers for both parts; one
// decoded from a connection holds views of the received frame and owns the
// frame instead, so element bytes are not copied on the way in.
type Msg struct {
	head, payload []byte
	own           bool   // head and payload are the message's own bufpool buffers
	frame         []byte // received frame head and payload view, or nil
}

// newMsg builds an owned message: head is copied into a right-sized pooled
// buffer (callers encode into a scratch encoder they keep), payload must be
// a bufpool buffer or nil and is taken over as is.
func newMsg(head, payload []byte) *Msg {
	m := &Msg{head: bufpool.Get(len(head)), payload: payload, own: true}
	copy(m.head, head)
	mFragBytesLent.Add(uint64(len(payload)))
	return m
}

// Release returns the pooled buffers the message owns; releasing nil, or a
// message twice, is a no-op. It is also the comm.Releaser hook: a message
// comm cannot deliver is released there.
func (m *Msg) Release() {
	if m == nil {
		return
	}
	if m.own {
		bufpool.Put(m.head)
		bufpool.Put(m.payload)
	}
	bufpool.PutFrame(m.frame)
	*m = Msg{}
}

// kind returns the message kind, zero for an empty head.
func (m *Msg) kind() byte {
	if len(m.head) == 0 {
		return 0
	}
	return m.head[0]
}

// elems returns n packed float64 elements starting at byte offset off of
// the payload. Reinterpreting bytes as float64 needs 8-byte alignment,
// which every payload has: a pooled buffer, or a view of a received frame,
// whose alignment the decode checks (wire.KeepBytesRef).
func (m *Msg) elems(off, n int) []float64 {
	if n == 0 {
		return nil
	}
	return float64sOf(m.payload[off : off+8*n])
}

// float64sOf views 8-aligned bytes as float64 elements. On the wire they
// are little-endian IEEE-754, the in-memory form on every supported host.
func float64sOf(b []byte) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

func init() { comm.RegisterRemoteDecoder(comm.CodecPRMI, decodeRemoteMsg) }

// RemoteTag implements comm.Remote.
func (m *Msg) RemoteTag() byte { return comm.CodecPRMI }

// PutRemote puts a message on a connection and retires it: the head is
// copied into the frame header, and the payload is the final field, lent
// to the connection (wire.LendPayload) — the message's own buffer,
// detached here, or a pooled copy of a payload it only views — and
// aligned so the receiver can unpack it in place.
func (m *Msg) PutRemote(e *wire.Encoder) {
	e.PutBytes(m.head)
	e.LendPayload(m.payload, m.own)
	if m.own {
		m.payload = nil
	}
	m.Release()
}

// decodeRemoteMsg rebuilds a message viewing head and payload in the
// received frame, which it keeps: Release returns it.
func decodeRemoteMsg(d *wire.Decoder) (any, error) {
	head := d.BorrowBytes()
	payload, frame := d.KeepBytesRef()
	if d.Err() != nil {
		return nil, fmt.Errorf("prmi: corrupt remote message: %w", d.Err())
	}
	return &Msg{head: head, payload: payload, frame: frame}, nil
}

// getSimple decodes a simple-value section (count, then name and value of
// each; empty means none) into a map, nil when it holds no values. Names
// reuse the method spec's strings instead of allocating copies.
func getSimple(sec []byte, m *sidl.Method) (vals map[string]any, err error) {
	if len(sec) == 0 {
		return nil, nil
	}
	d := wire.NewDecoder(sec)
	// Every value costs at least two encoded bytes, so a count beyond the
	// bytes present is corruption; reject before it sizes an allocation.
	n := d.Uvarint()
	if n > uint64(d.Remaining()) {
		return nil, wire.ErrCorrupt
	}
	for i := uint64(0); i < n; i++ {
		name, value := d.BorrowBytes(), d.Value()
		if vals == nil {
			vals = make(map[string]any, n)
		}
		key := string(name)
		if pr, ok := paramNamed(m, key); ok {
			key = pr.Name
		}
		vals[key] = value
	}
	return vals, d.Err()
}

// callHdr is the decoded invocation header one caller rank sends one
// callee rank: for collective methods every participating caller sends one
// to every callee rank (the all-to-all invocation), for independent
// methods a single caller sends one to a single callee. The header keeps
// its message; simple is a view that dies with msg.Release.
type callHdr struct {
	msg        *Msg
	seq        uint64
	callerRank int // as attributed by the link
	// epoch is the caller's membership epoch at send time; receivers
	// behind a newer epoch reject the call. Zero means unstamped.
	epoch  uint64
	plan   *plan
	pos    int    // caller's position among plan.participants; -1 for independent
	simple []byte // encoded simple-argument section
}

// putCallHead starts a call head. Layout, after the kind byte:
//
//	seq u64 · epoch u64
//	plan key bytes — constant per (method, participants, templates)
//	per parallel parameter: template encoding bytes (empty once the callee
//	    has it) · fragment byte length uvarint
//	simple-argument section bytes
//
// The payload is the fragments back to back.
func putCallHead(e *wire.Encoder, seq, epoch uint64, key []byte) {
	e.Reset()
	e.PutByte(msgCall)
	e.PutUint64(seq)
	e.PutUint64(epoch)
	e.PutBytes(key)
}

// replyMsg is the part of a reply that does not depend on the receiving
// caller: one is shared by every reply of a collective invocation.
type replyMsg struct {
	errText   string
	ret       any
	simpleOut []byte // encoded simple-out section
}

// reply is a decoded reply head. Like callHdr it keeps its message until
// the parallel fragments have been unpacked.
type reply struct {
	replyMsg
	msg *Msg
	seq uint64
}

// putReplyHead starts a reply head. Layout, after the kind byte:
//
//	seq u64 · errText string · ret value · simple-out section bytes
//
// The payload of a successful collective reply is the fragment of every
// out/inout parallel parameter, in parameter order, each as long as the
// reverse schedule says; an error reply has none.
func putReplyHead(e *wire.Encoder, seq uint64, rep *replyMsg) {
	e.Reset()
	e.PutByte(msgReply)
	e.PutUint64(seq)
	e.PutString(rep.errText)
	e.PutValue(rep.ret)
	e.PutBytes(rep.simpleOut)
}

func decodeReply(m *Msg, rep *reply) error {
	d := wire.NewDecoder(m.head[1:])
	*rep = reply{msg: m, seq: d.Uint64()}
	rep.errText, rep.ret, rep.simpleOut = d.String(), d.Value(), d.BorrowBytes()
	return d.Err()
}

// cachedTemplate returns the peer template named key, decoding enc into
// the cache on first sight, so an encoding is decoded once per distinct
// distribution.
func cachedTemplate(cache map[string]*dad.Template, key string, enc []byte) (*dad.Template, error) {
	if t, ok := cache[key]; ok {
		return t, nil
	}
	if len(enc) == 0 {
		return nil, fmt.Errorf("prmi: unknown template %q with no encoding", key)
	}
	t, err := dad.DecodeTemplate(wire.NewDecoder(enc))
	if err != nil {
		return nil, fmt.Errorf("prmi: decoding peer template: %w", err)
	}
	cache[key] = t
	return t, nil
}

// Package wire implements the binary encoding used when M×N middleware
// traffic leaves a process: framed messages over a stream, and a compact
// self-describing encoding for the value kinds that cross component
// boundaries (scalars, strings, numeric arrays and descriptor metadata).
//
// The encoding is little-endian and length-prefixed throughout. It is not a
// general serialization system; it covers exactly the types the paper's
// middleware moves — which keeps the codec allocation-light and easy to
// audit.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

// Frame-level instruments, registered in the process-default registry.
// bytes_vectored vs bytes_copied split the payload bytes of written
// frames by entry point: scatter-gather frames (WriteFrameV) never
// flatten their segments, flat frames (WriteFrame) carry payloads that
// were materialized contiguously by the caller. Both leave through the
// same writer; the ratio is the headline of the zero-copy wire path.
var (
	mFramesWritten    = obs.Default().Counter("wire.frames_written")
	mFramesRead       = obs.Default().Counter("wire.frames_read")
	mBytesWritten     = obs.Default().Counter("wire.bytes_written")
	mBytesRead        = obs.Default().Counter("wire.bytes_read")
	mBytesVectored    = obs.Default().Counter("wire.bytes_vectored")
	mBytesCopied      = obs.Default().Counter("wire.bytes_copied")
	mChecksumFailures = obs.Default().Counter("wire.checksum_failures")
	mFrameBytes       = obs.Default().Histogram("wire.frame_bytes")
	// writes counts calls to the frame writer — one writev per batch on a
	// TCP conn — and reads the reads frame readers issue to their stream,
	// so frames per system call is frames_written ÷ writes on one side
	// and frames_read ÷ reads on the other.
	mWrites = obs.Default().Counter("wire.writes")
	mReads  = obs.Default().Counter("wire.reads")
)

// bytes_read_copied counts received bytes a frame reader copied out of its
// read-ahead, into a frame's own buffer or a placed region: a frame that
// fits the read-ahead is handed up in place and adds none.
// bytes_read_moved counts the unread bytes it moved within or between
// read-ahead slabs to make room for a read, at most one partial frame a
// read.
var (
	mBytesReadCopied = obs.Default().Counter("wire.bytes_read_copied")
	mBytesReadMoved  = obs.Default().Counter("wire.bytes_read_moved")
)

// ErrCorrupt reports a malformed buffer.
var ErrCorrupt = errors.New("wire: corrupt data")

// Encoder appends encoded values to a byte buffer. The zero value is ready
// to use; Bytes returns the accumulated encoding.
//
// PutBytesRef records its slice by reference instead of copying it into
// the buffer, and Vector returns the (header, payload) pair for a
// scatter-gather send (an owned transport.Conn.SendBatch, WriteFramesLent),
// so large payloads travel from the pack buffer to the socket without an
// intermediate flatten.
type Encoder struct {
	buf     []byte
	payload []byte
	loan    Loan
}

// NewEncoder returns an encoder that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded buffer: the whole encoding, unless
// PutBytesRef recorded a payload, which follows these bytes on the wire;
// use Vector then.
func (e *Encoder) Bytes() []byte { return e.buf }

// Vector returns the header bytes and the payload segment PutBytesRef
// recorded (nil when it recorded none). The wire representation is the
// concatenation head ++ payload.
func (e *Encoder) Vector() (head, payload []byte) { return e.buf, e.payload }

// Loan returns the loan PutLoan recorded, nil when it recorded none. The
// wire representation is then head ++ the loan's segments.
func (e *Encoder) Loan() Loan { return e.loan }

// Reset discards the accumulated encoding (and any recorded payload or
// loan) but keeps the capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.payload = nil
	e.loan = nil
}

// Len returns the current encoded length in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// PutUint64 appends a fixed-width 64-bit unsigned integer.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends a fixed-width 64-bit signed integer.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutInt appends an int as a 64-bit signed integer.
func (e *Encoder) PutInt(v int) { e.PutInt64(int64(v)) }

// PutUvarint appends a variable-width unsigned integer.
func (e *Encoder) PutUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutFloat64 appends an IEEE-754 double.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutBool appends a boolean as one byte.
func (e *Encoder) PutBool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// PutByte appends a raw byte.
func (e *Encoder) PutByte(b byte) { e.buf = append(e.buf, b) }

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutBytesRef appends a length-prefixed byte slice whose bytes start
// 8-byte aligned relative to the start of the encoding: zero padding
// follows the length prefix, so a receiver whose buffer starts aligned
// (every bufpool buffer does) can view the bytes in place as elements of
// any numeric type. Decode it with KeepBytesRef.
//
// b is not copied: the length prefix and padding land in the header
// buffer and b itself is recorded as the payload segment returned by
// Vector. The caller must not mutate b until the frame carrying it has
// been written (or, for owned sends, until the transport releases it).
// An encoding records at most one payload and it must be the final
// variable-length field, since on the wire it follows every header byte.
// An empty b is not recorded, so Vector stays nil for zero-length
// payloads.
func (e *Encoder) PutBytesRef(b []byte) {
	e.PutUvarint(uint64(len(b)))
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
	if len(b) == 0 {
		return
	}
	if e.payload != nil || e.loan != nil {
		panic("wire: second payload in one encoding")
	}
	e.payload = b
}

// Loan is a payload lent to the wire by reference: segments of the
// lender's own memory, which whoever holds the loan reads until it calls
// Release, exactly once. A transfer's remote chunk travels as one, a view
// per run of the caller's source array, so no byte of it is packed.
type Loan interface {
	Segs() net.Buffers
	Release()
}

// PutLoan is PutBytesRef for a payload of n bytes that l lends: the length
// prefix and padding land in the header buffer, and l is recorded in
// place of a payload segment. The bytes on the wire are those PutBytesRef
// writes for the concatenation of l's segments, which must total n. A nil
// l writes the prefix and padding alone: the head a receiver posting for
// such a payload expects.
func (e *Encoder) PutLoan(l Loan, n int) {
	e.PutUvarint(uint64(n))
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
	if e.payload != nil || e.loan != nil {
		panic("wire: second payload in one encoding")
	}
	e.loan = l
}

// LendPayload writes b with PutBytesRef as the payload an encoding lends
// to an owned transport.Conn.SendBatch, which returns it to the pool once
// sent. It
// is the one rule for who owns a lent payload: an owned b is the caller's
// own bufpool buffer and is lent as is, and the caller forgets it; any
// other b is a view of memory the caller cannot give away (a zero-copy
// source slice, a received frame), and a pooled copy of it is lent.
func (e *Encoder) LendPayload(b []byte, owned bool) {
	if !owned && len(b) > 0 {
		c := bufpool.Get(len(b))
		copy(c, b)
		b = c
	}
	e.PutBytesRef(b)
}

// hostLittleEndian reports that the in-memory bytes of a numeric slice
// are already its wire bytes, so the slice codecs below can move a whole
// slice with one memmove instead of one append per element.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// elemBytes views a slice of fixed-size numeric elements as its in-memory
// bytes, without copying.
func elemBytes[T any](v []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(z)))
}

// putBulk appends v's length prefix and, on a little-endian host, its
// elements as one byte-view append. It reports whether the elements were
// written; when not, the caller appends them one by one.
func putBulk[T any](e *Encoder, v []T) bool {
	e.PutUvarint(uint64(len(v)))
	if hostLittleEndian {
		e.buf = append(e.buf, elemBytes(v)...)
	}
	return hostLittleEndian
}

// getBulk reads a length prefix, bounds it by the bytes present and
// allocates the result. On a little-endian host the elements are filled
// with one memmove; otherwise each reports true and the caller reads them
// one by one.
func getBulk[T any](d *Decoder) (out []T, each bool) {
	var z T
	size := int(unsafe.Sizeof(z))
	n := d.Uvarint()
	if d.err != nil || n > uint64(d.Remaining()/size) {
		d.fail()
		return nil, false
	}
	out = make([]T, n)
	if hostLittleEndian {
		copy(elemBytes(out), d.take(int(n)*size))
	}
	return out, !hostLittleEndian
}

// PutFloat64s appends a length-prefixed []float64.
func (e *Encoder) PutFloat64s(v []float64) {
	if putBulk(e, v) {
		return
	}
	for _, x := range v {
		e.PutFloat64(x)
	}
}

// PutFloat32 appends an IEEE-754 single.
func (e *Encoder) PutFloat32(v float32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
	e.buf = append(e.buf, b[:]...)
}

// PutComplex128 appends a complex128 as two IEEE-754 doubles (real,
// imaginary).
func (e *Encoder) PutComplex128(v complex128) {
	e.PutFloat64(real(v))
	e.PutFloat64(imag(v))
}

// PutFloat32s appends a length-prefixed []float32.
func (e *Encoder) PutFloat32s(v []float32) {
	if putBulk(e, v) {
		return
	}
	for _, x := range v {
		e.PutFloat32(x)
	}
}

// PutInt32s appends a length-prefixed []int32.
func (e *Encoder) PutInt32s(v []int32) {
	if putBulk(e, v) {
		return
	}
	for _, x := range v {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		e.buf = append(e.buf, b[:]...)
	}
}

// PutComplex128s appends a length-prefixed []complex128.
func (e *Encoder) PutComplex128s(v []complex128) {
	if putBulk(e, v) {
		return
	}
	for _, x := range v {
		e.PutComplex128(x)
	}
}

// PutInt64s appends a length-prefixed []int64.
func (e *Encoder) PutInt64s(v []int64) {
	if putBulk(e, v) {
		return
	}
	for _, x := range v {
		e.PutInt64(x)
	}
}

// PutInts appends a length-prefixed []int.
func (e *Encoder) PutInts(v []int) {
	e.PutUvarint(uint64(len(v)))
	for _, x := range v {
		e.PutInt64(int64(x))
	}
}

// Decoder consumes values from a byte buffer produced by Encoder. Decode
// errors are sticky: after the first failure every subsequent Get reports
// the same error through Err, and zero values are returned.
type Decoder struct {
	buf    []byte
	off    int
	err    error
	kept   bool
	placed int // payload bytes missing from buf's end: placed elsewhere
}

// NewDecoder returns a decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Reset makes d a decoder reading from buf, as NewDecoder(buf) is: a
// reader of many frames decodes them all with one Decoder.
func (d *Decoder) Reset(buf []byte) { *d = Decoder{buf: buf} }

// Err returns the first decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Kept reports whether KeepBytesRef took the decoder's input over. When
// the input is a pooled frame, whoever created the decoder returns the
// frame itself unless a decoded value kept it.
func (d *Decoder) Kept() bool { return d.kept }

// SetPlaced tells the decoder that its input lacks its last n bytes: the
// tail of a PutBytesRef payload that a placing frame reader read straight
// into the receiver's memory instead of into the frame. KeepBytesRef then
// accepts a view shorter than its length prefix by exactly n bytes.
func (d *Decoder) SetPlaced(n int) { d.placed = n }

// Placed returns the bytes SetPlaced declared missing.
func (d *Decoder) Placed() int { return d.placed }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Uint64 reads a fixed-width 64-bit unsigned integer.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Int64 reads a fixed-width 64-bit signed integer.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Int reads an int encoded by PutInt.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Uvarint reads a variable-width unsigned integer.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Float64 reads an IEEE-754 double.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads a boolean.
func (d *Decoder) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	return b[0] != 0
}

// Byte reads a raw byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// stringLen validates a length prefix against the remaining buffer.
func (d *Decoder) lenPrefix() (int, bool) {
	n := d.Uvarint()
	if d.err != nil {
		return 0, false
	}
	if n > uint64(d.Remaining()) {
		d.fail()
		return 0, false
	}
	return int(n), true
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n, ok := d.lenPrefix()
	if !ok {
		return ""
	}
	return string(d.take(n))
}

// Bytes reads a length-prefixed byte slice. The result is a copy.
func (d *Decoder) Bytes() []byte {
	n, ok := d.lenPrefix()
	if !ok {
		return nil
	}
	b := d.take(n)
	out := make([]byte, n)
	copy(out, b)
	return out
}

// BorrowBytes reads a length-prefixed byte slice without copying: the
// result aliases the decoder's input buffer. The caller owns the view
// only as long as it owns the input buffer — it must copy out (or finish
// consuming) the bytes before the buffer is reused or returned to a
// pool. The hot receive path uses this to skip the defensive copy Bytes
// makes.
func (d *Decoder) BorrowBytes() []byte {
	n, ok := d.lenPrefix()
	if !ok {
		return nil
	}
	return d.take(n)
}

// KeepBytesRef reads a slice written by PutBytesRef as a view of the
// decoder's input, skipping the alignment padding, and takes the input
// over: the caller owns frame, the whole input buffer, from then on and
// returns it once nothing views it. The view is the one way a received
// payload is read in place, and it starts 8-byte aligned: PutBytesRef pads
// relative to the start of the encoding, and every transport.Conn.Recv
// returns a frame that starts at a pool-buffer boundary. A non-empty view
// that is not aligned can only come from an input that does not; it is
// corrupt (ErrCorrupt), and the input is left to the decoder's creator.
//
// After SetPlaced(p), the view is the payload's first n-p bytes, the part
// the frame holds; the rest was placed.
func (d *Decoder) KeepBytesRef() (view, frame []byte) {
	n := d.Uvarint()
	d.take(-d.off & 7)
	if d.err != nil || n < uint64(d.placed) || n-uint64(d.placed) > uint64(d.Remaining()) {
		d.fail()
		return nil, nil
	}
	view = d.take(int(n) - d.placed)
	if len(view) > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(view)))%8 != 0 {
		d.fail()
		return nil, nil
	}
	d.kept = true
	return view, d.buf
}

// Float64s reads a length-prefixed []float64.
func (d *Decoder) Float64s() []float64 {
	out, each := getBulk[float64](d)
	if each {
		for i := range out {
			out[i] = d.Float64()
		}
	}
	return out
}

// Float32 reads an IEEE-754 single.
func (d *Decoder) Float32() float32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// Complex128 reads a complex128 written by PutComplex128.
func (d *Decoder) Complex128() complex128 {
	re := d.Float64()
	im := d.Float64()
	return complex(re, im)
}

// Float32s reads a length-prefixed []float32.
func (d *Decoder) Float32s() []float32 {
	out, each := getBulk[float32](d)
	if each {
		for i := range out {
			out[i] = d.Float32()
		}
	}
	return out
}

// Int32s reads a length-prefixed []int32.
func (d *Decoder) Int32s() []int32 {
	out, each := getBulk[int32](d)
	if each {
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(d.take(4)))
		}
	}
	return out
}

// Complex128s reads a length-prefixed []complex128.
func (d *Decoder) Complex128s() []complex128 {
	out, each := getBulk[complex128](d)
	if each {
		for i := range out {
			out[i] = d.Complex128()
		}
	}
	return out
}

// Int64s reads a length-prefixed []int64.
func (d *Decoder) Int64s() []int64 {
	out, each := getBulk[int64](d)
	if each {
		for i := range out {
			out[i] = d.Int64()
		}
	}
	return out
}

// Ints reads a []int encoded by PutInts.
func (d *Decoder) Ints() []int {
	n := d.Uvarint()
	if d.err != nil || n > uint64(d.Remaining()/8) {
		d.fail()
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Int64())
	}
	return out
}

// Value type tags for the self-describing any-encoding.
const (
	tagNil byte = iota
	tagBool
	tagInt64
	tagFloat64
	tagString
	tagBytes
	tagFloat64s
	tagInt64s
	tagInts
	tagList
	// Typed element arrays for non-float64 workloads; appended after the
	// original tags so historical encodings stay decodable.
	tagFloat32s
	tagInt32s
	tagComplex128s
	tagComplex128
	tagUint64
)

// PutValue appends a self-describing encoding of v. Supported dynamic
// types: nil, bool, int, int64, uint64, float64, complex128, string,
// []byte, []float64, []float32, []int64, []int32, []int, []complex128 and
// []any (recursively). Other types panic: the caller is middleware code
// that controls what crosses the wire, so an unsupported type is a
// programming error, not input.
func (e *Encoder) PutValue(v any) {
	switch x := v.(type) {
	case nil:
		e.PutByte(tagNil)
	case bool:
		e.PutByte(tagBool)
		e.PutBool(x)
	case int:
		e.PutByte(tagInt64)
		e.PutInt64(int64(x))
	case int64:
		e.PutByte(tagInt64)
		e.PutInt64(x)
	case uint64:
		e.PutByte(tagUint64)
		e.PutUint64(x)
	case float64:
		e.PutByte(tagFloat64)
		e.PutFloat64(x)
	case string:
		e.PutByte(tagString)
		e.PutString(x)
	case []byte:
		e.PutByte(tagBytes)
		e.PutBytes(x)
	case complex128:
		e.PutByte(tagComplex128)
		e.PutComplex128(x)
	case []float64:
		e.PutByte(tagFloat64s)
		e.PutFloat64s(x)
	case []float32:
		e.PutByte(tagFloat32s)
		e.PutFloat32s(x)
	case []int64:
		e.PutByte(tagInt64s)
		e.PutInt64s(x)
	case []int32:
		e.PutByte(tagInt32s)
		e.PutInt32s(x)
	case []complex128:
		e.PutByte(tagComplex128s)
		e.PutComplex128s(x)
	case []int:
		e.PutByte(tagInts)
		e.PutInts(x)
	case []any:
		e.PutByte(tagList)
		e.PutUvarint(uint64(len(x)))
		for _, el := range x {
			e.PutValue(el)
		}
	default:
		panic(fmt.Sprintf("wire: unsupported value type %T", v))
	}
}

// Value reads a value written by PutValue. Signed integers decode as
// int64; uint64 round-trips as uint64.
func (d *Decoder) Value() any {
	tag := d.Byte()
	if d.err != nil {
		return nil
	}
	switch tag {
	case tagNil:
		return nil
	case tagBool:
		return d.Bool()
	case tagInt64:
		return d.Int64()
	case tagUint64:
		return d.Uint64()
	case tagFloat64:
		return d.Float64()
	case tagString:
		return d.String()
	case tagBytes:
		return d.Bytes()
	case tagFloat64s:
		return d.Float64s()
	case tagFloat32s:
		return d.Float32s()
	case tagInt64s:
		return d.Int64s()
	case tagInt32s:
		return d.Int32s()
	case tagComplex128s:
		return d.Complex128s()
	case tagComplex128:
		return d.Complex128()
	case tagInts:
		return d.Ints()
	case tagList:
		n := d.Uvarint()
		if d.err != nil || n > uint64(d.Remaining()) {
			d.fail()
			return nil
		}
		out := make([]any, n)
		for i := range out {
			out[i] = d.Value()
		}
		return out
	default:
		d.fail()
		return nil
	}
}

// Frame I/O: each frame is a 4-byte little-endian length, a 4-byte
// little-endian CRC-32C checksum of the payload (crc32c), then the
// payload, then zero padding to a multiple of 8 bytes (at most 7, outside
// the length and the checksum), so that every frame of a stream starts
// 8-byte aligned relative to the stream's start and a reader can hand a
// payload up where it was read. A frame whose checksum does not match
// fails its read with ErrCorrupt, so a corrupted link is told from a
// merely slow one: over a session, session.(*Conn).pump hands the failed
// read to connFailed, which treats the link as lost, reconnects and
// replays what the peer has not acknowledged. MaxFrame bounds a single frame to guard against corrupt
// peers.
const MaxFrame = 1 << 30

// WriteFrame writes one length-prefixed, checksummed frame to w: the
// one-segment case of WriteFrameV, with the payload accounted as
// materialized contiguously by the caller.
func WriteFrame(w io.Writer, payload []byte) error {
	seg := [1][]byte{payload}
	msg := [1]net.Buffers{seg[:]}
	return writeFrames(w, msg[:], nil, mBytesCopied)
}

// vecState is the per-write scratch of the frame writer: the 8-byte frame
// headers plus the iovec slice handed to net.Buffers.WriteTo. States are
// recycled through a mutex-guarded free list so the healthy send path
// performs no allocations.
type vecState struct {
	hdrs []byte
	iov  net.Buffers
	next *vecState
}

var vecPool struct {
	mu   sync.Mutex
	free *vecState
	n    int
}

const maxFreeVecStates = 16

func getVecState() *vecState {
	vecPool.mu.Lock()
	v := vecPool.free
	if v != nil {
		vecPool.free = v.next
		vecPool.n--
	}
	vecPool.mu.Unlock()
	if v == nil {
		v = &vecState{hdrs: make([]byte, 0, 64), iov: make([][]byte, 0, 16)}
	}
	v.next = nil
	return v
}

func putVecState(v *vecState) {
	// Drop segment references so pooled states do not pin payload
	// buffers between writes.
	for i := range v.iov {
		v.iov[i] = nil
	}
	vecPool.mu.Lock()
	if vecPool.n < maxFreeVecStates {
		v.next = vecPool.free
		vecPool.free = v
		vecPool.n++
	}
	vecPool.mu.Unlock()
}

// WriteFrameV writes one frame whose payload is the concatenation of
// segs, without flattening the segments: the CRC-32C is computed
// incrementally across them and the header plus every segment are handed
// to the writer as a single net.Buffers, which net.TCPConn turns into
// one writev call. The bytes on the wire are those of one frame carrying
// concat(segs...). segs itself is never mutated (WriteTo consumes an
// internal copy of the vector), so callers may reuse their slice
// immediately.
func WriteFrameV(w io.Writer, segs net.Buffers) error {
	msg := [1]net.Buffers{segs}
	return writeFrames(w, msg[:], nil, mBytesVectored)
}

// WriteFramesLent writes one frame per message with a single write of
// every header and segment, which net.TCPConn turns into one writev for
// the whole batch. Message i is the concatenation of msgs[i], followed,
// when loans is non-nil and loans[i] is not, by that of loans[i].Segs().
// The bytes on the wire are those of len(msgs) WriteFrameV calls; when any
// message exceeds MaxFrame nothing is written. The loans are only read;
// releasing them is the caller's business.
func WriteFramesLent(w io.Writer, msgs []net.Buffers, loans []Loan) error {
	return writeFrames(w, msgs, loans, mBytesVectored)
}

// loanSegs returns the lent segments of message i, nil when it has none.
func loanSegs(loans []Loan, i int) net.Buffers {
	if loans == nil || loans[i] == nil {
		return nil
	}
	return loans[i].Segs()
}

// writeFrames is the one frame writer; path is the payload-bytes counter
// of the caller's side of the copied/vectored split.
func writeFrames(w io.Writer, msgs []net.Buffers, loans []Loan, path *obs.Counter) error {
	payload := 0
	for i, segs := range msgs {
		total := 0
		for _, s := range segs {
			total += len(s)
		}
		for _, s := range loanSegs(loans, i) {
			total += len(s)
		}
		if total > MaxFrame {
			return fmt.Errorf("wire: frame of %d bytes exceeds max %d", total, MaxFrame)
		}
		payload += total
	}
	pads := 0
	v := getVecState()
	if cap(v.hdrs) < 8*len(msgs) {
		v.hdrs = make([]byte, 8*len(msgs))
	}
	hdrs := v.hdrs[:8*len(msgs)]
	v.iov = v.iov[:0]
	for i, segs := range msgs {
		total := 0
		var crc uint32
		lent := loanSegs(loans, i)
		for _, s := range segs {
			total += len(s)
			crc = crc32c(crc, s)
		}
		for _, s := range lent {
			total += len(s)
			crc = crc32c(crc, s)
		}
		hdr := hdrs[8*i : 8*i+8]
		binary.LittleEndian.PutUint32(hdr[:4], uint32(total))
		binary.LittleEndian.PutUint32(hdr[4:], crc)
		v.iov = append(v.iov, hdr)
		v.iov = append(v.iov, segs...)
		v.iov = append(v.iov, lent...)
		if pad := padding(total); pad > 0 {
			v.iov = append(v.iov, zeros[:pad])
			pads += pad
		}
		mFrameBytes.Observe(int64(total))
	}
	// WriteTo advances (and so mutates) the vector it is invoked on, and
	// takes its address: invoke it on the pooled state's own slice header,
	// which costs no allocation as a local one would, and restore the
	// header afterwards so the array's full capacity survives for the next
	// frame.
	iov := v.iov
	_, err := v.iov.WriteTo(w)
	v.iov = iov
	putVecState(v)
	if err != nil {
		return err
	}
	mWrites.Inc()
	mFramesWritten.Add(uint64(len(msgs)))
	mBytesWritten.Add(uint64(8*len(msgs) + payload + pads))
	path.Add(uint64(payload))
	return nil
}

// zeros is the padding writeFrames appends after a payload.
var zeros [7]byte

// frameStart is what the frame reader commits before any payload byte has
// arrived when no free buffer of the frame's class is pooled; from there
// the buffer doubles as bytes arrive, within its capacity first.
const frameStart = 64 << 10

// ReadFrame reads one frame written by WriteFrame, verifying its checksum.
// A checksum mismatch reports ErrCorrupt (wrapped). It reads exactly the
// frame's bytes from r, its padding included, nothing beyond them.
//
// The payload is read straight into a pooled frame (bufpool.GetFrame)
// with the CRC-32C folded into the read, one pass over the bytes. The
// caller owns the returned frame and returns it — or any prefix of it —
// with bufpool.PutFrame; on every error path the reader has already
// returned it. A free buffer of the frame's class costs no new memory;
// otherwise the buffer grows through the classes as bytes arrive, so a
// corrupt length prefix costs no more memory than about twice the bytes
// the peer actually sent.
func ReadFrame(r io.Reader) ([]byte, error) {
	fr := FrameReader{r: r}
	return fr.ReadFrame()
}

// pinMax bounds the slabs a FrameReader has left with views still out:
// at the bound it copies each frame out of its current slab instead of
// handing up a view, so a receiver that holds every frame it is handed
// pins at most pinMax+1 slabs of one reader.
const pinMax = 4

// FrameReader reads frames from a stream through a read-ahead buffer, so
// that the frames a peer wrote together — a WriteFramesLent batch — arrive
// with one read rather than a header read and a payload read each. The
// read-ahead is a pooled slab (bufpool.Slab), and a frame that fits it is
// handed up in place, as a view of the slab, once its CRC-32C checks out:
// no byte of it is copied. A larger frame lands in a pooled frame of its
// own: the part already read ahead is copied there, and whatever it has
// beyond that is read straight into it. The reader may hold bytes of the
// frames that follow, so it owns the read side of its stream; it is used
// by one goroutine at a time.
//
// No byte under a view is written again. When the reader needs more bytes
// and no view of its slab is out, it moves the unread tail to the slab's
// front and reads after it; with views out, it reads into the slab's free
// end, or moves the tail to a fresh slab and leaves the old one to its
// views, which return it to the pool. Past pinMax slabs left that way,
// frames are copied out.
type FrameReader struct {
	r      io.Reader
	size   int           // read-ahead bytes; 0 reads exactly one frame's bytes at a time
	slab   *bufpool.Slab // taken at the first read, nil after Close
	buf    []byte        // the slab's first size bytes
	lo, hi int           // buf[lo:hi] has been read but not consumed
	// skew is the stream offset of buf[lo] minus lo, modulo 8: non-zero
	// only while the read-ahead is empty after bytes were read past it.
	// skip is the padding of the last frame, still to be consumed; short
	// caps the next read after a placed frame's region (readEnd).
	skew, skip int
	short      bool
	pinned     atomic.Int32 // slabs left with views out
	closed     bool
	// Placing (see place.go): the placer frames of PlaceMin bytes and up
	// are offered to, the placement of the last frame returned, and the
	// scratch of the vectored reads.
	place  atomic.Pointer[placing]
	placed Placement
	vr     vecReader
	iov    [][]byte
}

// NewFrameReader returns a reader of r's frames with a read-ahead of size
// bytes (at least 16): a slab of that class, taken at the first read and
// let go by Close.
func NewFrameReader(r io.Reader, size int) *FrameReader {
	return &FrameReader{r: r, size: max(size, 16)}
}

// Close releases the reader's slab; the views it handed up stay valid
// until they are returned. Reading after Close fails with net.ErrClosed.
// It is not called concurrently with ReadFrame.
func (fr *FrameReader) Close() {
	fr.closed = true
	if fr.slab != nil {
		fr.slab.Release(nil)
		fr.slab, fr.buf = nil, nil
	}
	fr.lo, fr.hi = 0, 0
}

// padding returns the zero bytes that follow a payload of n bytes.
func padding(n int) int { return -n & 7 }

// ReadFrame reads the next frame, under ReadFrame's contract, except that
// a frame that fits the read-ahead is a view of the reader's slab (see
// FrameReader); bufpool.PutFrame takes either back. With a placer set, a
// frame of PlaceMin bytes or more may be placed instead (see SetPlacer):
// the frame returned then lacks the placed bytes.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if fr.closed {
		return nil, net.ErrClosed
	}
	n, sum, err := fr.header()
	if err != nil {
		return nil, err
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds max %d", n, MaxFrame)
	}
	fr.placed = nil
	if pl := fr.place.Load(); pl != nil && n >= PlaceMin && fr.size > 0 {
		p, err := fr.claim(pl, n)
		if err != nil {
			return nil, err
		}
		if p != nil {
			fr.lo += 8
			return fr.readPlaced(p, n, sum)
		}
	}
	if total := 8 + n + padding(n); fr.size > 0 && total <= fr.size {
		return fr.readInPlace(n, sum, total)
	}
	if fr.size > 0 {
		fr.lo += 8
	}
	return fr.readOwn(n, sum)
}

// readInPlace reads a frame whose header is at buf[lo:] and whose total
// bytes, header and padding included, fit the read-ahead: it reads them
// all into the slab, checks the CRC there and hands the payload up as a
// view — or, with pinMax slabs pinned, as a copy.
func (fr *FrameReader) readInPlace(n int, sum uint32, total int) ([]byte, error) {
	if err := fr.fill(total); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	off := fr.lo + 8
	fr.lo += total
	if crc := crc32c(0, fr.buf[off:off+n]); crc != sum {
		mChecksumFailures.Inc()
		return nil, fmt.Errorf("%w: frame checksum mismatch (got %08x, header says %08x)", ErrCorrupt, crc, sum)
	}
	mFramesRead.Inc()
	mBytesRead.Add(uint64(total))
	if n == 0 {
		return nil, nil
	}
	if fr.pinned.Load() >= pinMax {
		b := bufpool.GetFrame(n)
		copy(b, fr.buf[off:off+n])
		mBytesReadCopied.Add(uint64(n))
		return b, nil
	}
	return fr.slab.View(off, n), nil
}

// readOwn reads a frame of n bytes, its header consumed, into a pooled
// frame of its own.
func (fr *FrameReader) readOwn(n int, sum uint32) ([]byte, error) {
	buf := bufpool.TryGetFrame(n)
	if buf == nil {
		buf = bufpool.GetFrame(min(n, frameStart))
	}
	fail := func(err error) ([]byte, error) {
		bufpool.PutFrame(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var crc uint32
	for got := 0; got < n; {
		if got == len(buf) {
			buf = growFrame(buf, min(n, 2*len(buf)))
		}
		k, err := fr.read(buf[got:])
		crc = crc32c(crc, buf[got:got+k])
		got += k
		if err != nil && got < n {
			return fail(err)
		}
	}
	if crc != sum {
		mChecksumFailures.Inc()
		return fail(fmt.Errorf("%w: frame checksum mismatch (got %08x, header says %08x)", ErrCorrupt, crc, sum))
	}
	if err := fr.endPayload(n); err != nil {
		return fail(err)
	}
	mFramesRead.Inc()
	mBytesRead.Add(uint64(8 + n + padding(n)))
	return buf, nil
}

// endPayload consumes the padding after a payload of n bytes: at once
// when the reader reads exactly one frame's bytes, before the next header
// otherwise.
func (fr *FrameReader) endPayload(n int) error {
	if fr.size > 0 {
		fr.skip = padding(n)
		return nil
	}
	var pad [8]byte
	return fr.readFull(pad[:padding(n)])
}

// growFrame returns buf lengthened to next bytes: within its capacity, or
// as a larger pooled frame its bytes are copied to.
func growFrame(buf []byte, next int) []byte {
	if next <= cap(buf) {
		return buf[:next]
	}
	grown := bufpool.GetFrame(next)
	copy(grown, buf)
	bufpool.PutFrame(buf)
	return grown
}

// read is io.Reader's Read over the read-ahead: bytes already buffered
// first, copied out; with none, a p at least as long as the read-ahead is
// read into directly, and a shorter one refills the read-ahead with
// whatever the stream has ready.
func (fr *FrameReader) read(p []byte) (int, error) {
	if fr.lo == fr.hi {
		mReads.Inc()
		if len(p) >= fr.size {
			k, err := fr.r.Read(p)
			fr.skew = (fr.skew + k) & 7
			return k, err
		}
		fr.room(1)
		k, err := fr.r.Read(fr.buf[fr.hi:fr.readEnd(len(p))])
		fr.hi += k
		if k == 0 {
			return 0, err
		}
	}
	k := copy(p, fr.buf[fr.lo:fr.hi])
	fr.lo += k
	mBytesReadCopied.Add(uint64(k))
	return k, nil
}

// fill reads until the read-ahead holds need bytes from lo; need is at
// most size less lo's offset within its 8 bytes. It returns the stream's
// error when the stream ends or fails first.
func (fr *FrameReader) fill(need int) error {
	for fr.hi-fr.lo < need {
		fr.room(need)
		mReads.Inc()
		k, err := fr.r.Read(fr.buf[fr.hi:fr.readEnd(need-(fr.hi-fr.lo))])
		fr.hi += k
		if err != nil && fr.hi-fr.lo < need {
			return err
		}
	}
	return nil
}

// room readies the read-ahead for a read after buf[lo:hi] that brings it
// to need bytes, keeping every byte at an offset congruent to its stream
// offset modulo 8, so that a frame's payload starts 8-byte aligned. With
// no view out it moves the unread bytes to the slab's front; with views
// out it leaves the slab as is when the frame fits its free end and a
// quarter of the slab is free, and otherwise moves them to a fresh slab.
func (fr *FrameReader) room(need int) {
	if fr.slab == nil {
		fr.slab = bufpool.GetSlab(fr.size)
		fr.buf = fr.slab.Bytes()[:fr.size]
	}
	t := (fr.lo + fr.skew) & 7
	fr.skew = 0
	if !fr.slab.Viewed() {
		fr.move(fr.buf, t)
		return
	}
	if fr.lo == fr.hi {
		if p := fr.lo + (t-fr.lo)&7; p+need <= len(fr.buf) && len(fr.buf)-p >= len(fr.buf)/4 {
			fr.lo, fr.hi = p, p
			return
		}
	} else if fr.lo+need <= len(fr.buf) && len(fr.buf)-fr.hi >= len(fr.buf)/4 {
		return
	}
	s := bufpool.GetSlab(fr.size)
	fr.move(s.Bytes()[:fr.size], t)
	fr.slab.Release(&fr.pinned)
	fr.slab, fr.buf = s, s.Bytes()[:fr.size]
}

// readEnd returns where a read into the read-ahead that wants want more
// bytes ends: at the slab's end, except for the first read after a placed
// frame's region, which takes at most what it wants and a frame header
// and posting head beyond: the frame after a placed one is usually placed
// too, and whatever of its payload the read-ahead held would be copied
// into its posting.
func (fr *FrameReader) readEnd(want int) int {
	if !fr.short {
		return len(fr.buf)
	}
	fr.short = false
	return min(len(fr.buf), fr.hi+want+16+PlaceHead)
}

// move copies the unread bytes to dst[t:] and makes dst the read-ahead's
// bytes.
func (fr *FrameReader) move(dst []byte, t int) {
	if &dst[0] == &fr.buf[0] && fr.lo == t {
		return
	}
	k := copy(dst[t:], fr.buf[fr.lo:fr.hi])
	mBytesReadMoved.Add(uint64(k))
	fr.lo, fr.hi = t, t+k
}

// header reads the next frame's header, its length and checksum, after
// the last frame's padding. With a read-ahead the header stays in it,
// unconsumed, so a frame that fits is read whole after it.
func (fr *FrameReader) header() (n int, sum uint32, err error) {
	var hdr []byte
	if fr.size == 0 {
		var b [8]byte
		if err := fr.readFull(b[:]); err != nil {
			return 0, 0, err
		}
		hdr = b[:]
	} else {
		if err := fr.fill(fr.skip + 8); err != nil {
			if err == io.EOF && fr.hi-fr.lo != fr.skip {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, err
		}
		fr.lo += fr.skip
		fr.skip = 0
		hdr = fr.buf[fr.lo : fr.lo+8]
	}
	return int(binary.LittleEndian.Uint32(hdr[:4])), binary.LittleEndian.Uint32(hdr[4:]), nil
}

// readFull is io.ReadFull over read.
func (fr *FrameReader) readFull(p []byte) error {
	for got := 0; got < len(p); {
		k, err := fr.read(p[got:])
		got += k
		if err != nil && got < len(p) {
			if got > 0 && err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

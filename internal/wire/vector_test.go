package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net"
	"testing"

	"mxn/internal/bufpool"
)

// referenceFrame spells the frame format out independently of the writer
// under test: 4-byte little-endian length, 4-byte little-endian CRC-32C
// (Castagnoli) of the payload, then the payload. WriteFrame and
// WriteFrameV share one writer, so neither can vouch for the other.
func referenceFrame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload)+7)
	binary.LittleEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	out = append(out, payload...)
	return append(out, make([]byte, -len(payload)&7)...)
}

// splitAt cuts b into segments at the given offsets (sorted, within
// range). Zero-length segments are kept: WriteFrameV must tolerate them.
func splitAt(b []byte, offs ...int) net.Buffers {
	var segs net.Buffers
	prev := 0
	for _, o := range offs {
		segs = append(segs, b[prev:o])
		prev = o
	}
	return append(segs, b[prev:])
}

// TestWriteFrameVBitIdentical: the vectored framer must produce exactly
// the reference frame of the concatenated payload, for every
// segmentation — including empty and nil segments — and so must the flat
// WriteFrame of that payload.
func TestWriteFrameVBitIdentical(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	cases := []struct {
		name string
		segs net.Buffers
	}{
		{"nil", nil},
		{"empty", net.Buffers{}},
		{"one-empty-seg", net.Buffers{nil}},
		{"single", net.Buffers{payload}},
		{"two", splitAt(payload, 400)},
		{"many", splitAt(payload, 1, 2, 3, 500, 999)},
		{"empty-segs-mixed", splitAt(payload, 0, 0, 500, 500, 1000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []byte
			for _, s := range tc.segs {
				want = append(want, s...)
			}
			ref := referenceFrame(want)
			var flat bytes.Buffer
			if err := WriteFrame(&flat, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, flat.Bytes()) {
				t.Fatalf("flat frame differs from reference frame\nreference %x\nflat      %x", ref, flat.Bytes())
			}
			var vec bytes.Buffer
			if err := WriteFrameV(&vec, tc.segs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, vec.Bytes()) {
				t.Fatalf("vectored frame differs from reference frame\nreference %x\nvector    %x", ref, vec.Bytes())
			}
			got, err := ReadFrame(&vec)
			if err != nil {
				t.Fatalf("ReadFrame of vectored frame: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round-trip payload mismatch")
			}
		})
	}
}

// TestWriteFrameVDoesNotRetainSegments: WriteFrameV must not hold onto
// the caller's segment slices after it returns (the pooled iovec must be
// scrubbed), and repeated calls must not interleave state.
func TestWriteFrameVDoesNotRetainSegments(t *testing.T) {
	a := []byte("first payload segment")
	b := []byte("second segment")
	var buf1 bytes.Buffer
	if err := WriteFrameV(&buf1, net.Buffers{a, b}); err != nil {
		t.Fatal(err)
	}
	// Mutate the caller's buffers after the call; a second frame with
	// fresh contents must not see the old bytes.
	copy(a, "FIRST PAYLOAD SEGMENT")
	var buf2 bytes.Buffer
	if err := WriteFrameV(&buf2, net.Buffers{a, b}); err != nil {
		t.Fatal(err)
	}
	p1, err := ReadFrame(&buf1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ReadFrame(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if string(p1) != "first payload segmentsecond segment" {
		t.Fatalf("frame 1 payload = %q", p1)
	}
	if string(p2) != "FIRST PAYLOAD SEGMENTsecond segment" {
		t.Fatalf("frame 2 payload = %q", p2)
	}
}

// TestWriteFrameVOversize: the summed segment length is bounded exactly
// like WriteFrame's payload length. Each segment is legal alone; only
// the sum exceeds MaxFrame. The length check fires before any segment
// byte is read, so the untouched zero pages stay untouched.
func TestWriteFrameVOversize(t *testing.T) {
	half := make([]byte, MaxFrame/2+1)
	segs := net.Buffers{half, half}
	if err := WriteFrameV(discardWriter{}, segs); err == nil {
		t.Fatal("oversize vectored frame accepted")
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// referenceBytesRef spells the PutBytesRef field out independently of the
// encoder: prefix, the uvarint length, zero padding to an 8-byte offset of
// the encoding, then the bytes — the wire form the receiver reads whether
// the sender lent b or not.
func referenceBytesRef(prefix, b []byte) []byte {
	out := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(len(b)))
	for len(out)%8 != 0 {
		out = append(out, 0)
	}
	return append(out, b...)
}

// TestEncoderVectorSplit: PutBytesRef splits the encoding into header
// bytes plus the caller's slice by reference, the concatenation equals
// the reference encoding, and the payload starts at an 8-byte-aligned
// offset of the encoding; KeepBytesRef reads it back in place and takes
// the input over, and rejects an input that does not start aligned.
func TestEncoderVectorSplit(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}

	v := NewEncoder(nil)
	v.PutUint64(42)
	v.PutString("hdr")
	fields := append([]byte(nil), v.Bytes()...)
	v.PutBytesRef(payload)
	head, data := v.Vector()
	if len(data) != len(payload) || &data[0] != &payload[0] {
		t.Fatal("PutBytesRef did not record the caller's slice")
	}
	want := referenceBytesRef(fields, payload)
	got := append(append(bufpool.GetFrame(len(want))[:0], head...), data...)
	if !bytes.Equal(got, want) {
		t.Fatalf("vector split bytes differ from the reference encoding\nreference %x\nsplit     %x", want, got)
	}
	if len(head)%8 != 0 {
		t.Fatalf("payload starts at offset %d, not 8-byte aligned", len(head))
	}

	// Decode the concatenation, a pooled frame, to prove the field reads
	// back in place, aligned, and that the decoded value owns the frame.
	d := NewDecoder(got)
	if d.Uint64() != 42 || d.String() != "hdr" {
		t.Fatal("header fields corrupted")
	}
	view, frame := d.KeepBytesRef()
	if !bytes.Equal(view, payload) || d.Err() != nil || d.Remaining() != 0 {
		t.Fatal("payload field corrupted")
	}
	if &view[0] != &got[len(head)] || !d.Kept() || &frame[0] != &got[0] {
		t.Fatal("KeepBytesRef did not view the payload in place and keep the frame")
	}
	bufpool.PutFrame(frame)

	// The same bytes one byte into a buffer: the view would be misaligned,
	// so the field is corrupt and the input stays with its creator.
	odd := append([]byte{0}, want...)
	d = NewDecoder(odd[1:])
	if d.Uint64() != 42 || d.String() != "hdr" {
		t.Fatal("header fields corrupted at an odd offset")
	}
	if view, frame := d.KeepBytesRef(); view != nil || frame != nil || !errors.Is(d.Err(), ErrCorrupt) || d.Kept() {
		t.Fatalf("misaligned view accepted: err %v, kept %v", d.Err(), d.Kept())
	}
}

// TestLendPayloadOwnedOrCopied: the one lend rule. An owned buffer is lent
// as is; a view is copied once into a pooled buffer and the copy is lent.
func TestLendPayloadOwnedOrCopied(t *testing.T) {
	baseline := bufpool.Outstanding()
	owned := bufpool.Get(16)
	e := NewEncoder(nil)
	e.LendPayload(owned, true)
	if _, data := e.Vector(); &data[0] != &owned[0] || bufpool.Outstanding()-baseline != 1 {
		t.Fatal("owned buffer was not lent as is")
	}
	bufpool.Put(owned)

	view := []byte("a view the caller cannot give away")
	e = NewEncoder(nil)
	e.LendPayload(view, false)
	_, data := e.Vector()
	if &data[0] == &view[0] || !bytes.Equal(data, view) || bufpool.Outstanding()-baseline != 1 {
		t.Fatal("view was not lent as one pooled copy")
	}
	bufpool.Put(data)
	if d := bufpool.Outstanding() - baseline; d != 0 {
		t.Fatalf("%+d buffers outstanding", d)
	}
}

// TestEncoderVectorNoBorrow: an encoder with no PutBytesRef call yields a
// nil payload from Vector.
func TestEncoderVectorNoBorrow(t *testing.T) {
	v := NewEncoder(nil)
	v.PutUint64(7)
	head, data := v.Vector()
	if data != nil {
		t.Fatal("Vector returned a payload with no PutBytesRef")
	}
	if len(head) == 0 {
		t.Fatal("Vector lost the header bytes")
	}
	// Empty refs degrade to the inline empty encoding.
	v.Reset()
	v.PutBytesRef(nil)
	if _, data := v.Vector(); data != nil {
		t.Fatal("empty PutBytesRef should not record a payload")
	}
}

// TestEncoderSecondBorrowPanics: the wire format carries the recorded
// payload as the final frame segment, so a second one is a programming
// error the encoder must refuse loudly.
func TestEncoderSecondBorrowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second PutBytesRef did not panic")
		}
	}()
	v := NewEncoder(nil)
	v.PutBytesRef([]byte{1})
	v.PutBytesRef([]byte{2})
}

// TestDecoderBorrowBytesAliases: BorrowBytes returns a view into the
// decoder's input (zero copy), whereas Bytes returns an independent
// copy. Both must read the same field encoding.
func TestDecoderBorrowBytesAliases(t *testing.T) {
	e := NewEncoder(nil)
	e.PutBytes([]byte("payload goes here"))
	input := e.Bytes()

	d := NewDecoder(input)
	borrowed := d.BorrowBytes()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if string(borrowed) != "payload goes here" {
		t.Fatalf("borrowed = %q", borrowed)
	}
	// The borrow aliases the input: mutating the input shows through.
	input[len(input)-1] = '!'
	if borrowed[len(borrowed)-1] != '!' {
		t.Fatal("BorrowBytes did not alias the decoder input")
	}
	input[len(input)-1] = 'e'

	d2 := NewDecoder(input)
	copied := d2.Bytes()
	input[len(input)-1] = '!'
	if copied[len(copied)-1] == '!' {
		t.Fatal("Bytes aliased the decoder input; must copy")
	}
}

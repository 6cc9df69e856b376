package wire

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net"
	"testing"
)

// referenceFrame spells the frame format out independently of the writer
// under test: 4-byte little-endian length, 4-byte little-endian CRC-32C
// (Castagnoli) of the payload, then the payload. WriteFrame and
// WriteFrameV share one writer, so neither can vouch for the other.
func referenceFrame(payload []byte) []byte {
	out := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, payload...)
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

// TestEncoderVectorSplit: a borrow-mode encoder splits its output into
// header bytes plus the borrowed payload, the concatenation equals a
// plain encoder's output for the same puts, and the payload starts at an
// 8-byte-aligned offset of the encoding.
func TestEncoderVectorSplit(t *testing.T) {
	payload := []byte{9, 8, 7, 6, 5}

	plain := NewEncoder(nil)
	plain.PutUint64(42)
	plain.PutString("hdr")
	plain.PutBytesRef(payload) // plain encoder: falls back to a copy
	want := plain.Bytes()

	v := NewEncoderV(nil)
	if !v.Borrowing() {
		t.Fatal("NewEncoderV not in borrow mode")
	}
	v.PutUint64(42)
	v.PutString("hdr")
	v.PutBytesRef(payload)
	head, data := v.Vector()
	if len(data) != len(payload) || &data[0] != &payload[0] {
		t.Fatal("borrow-mode PutBytesRef did not borrow the caller's slice")
	}
	got := append(append([]byte(nil), head...), data...)
	if !bytes.Equal(got, want) {
		t.Fatalf("vector split bytes differ from plain encoding\nplain %x\nsplit %x", want, got)
	}
	if len(head)%8 != 0 {
		t.Fatalf("borrowed payload starts at offset %d, not 8-byte aligned", len(head))
	}

	// Decode the concatenation to prove the borrowed field reads back, in
	// place and aligned.
	d := NewDecoder(got)
	if d.Uint64() != 42 || d.String() != "hdr" {
		t.Fatal("header fields corrupted")
	}
	view := d.BorrowBytesRef()
	if !bytes.Equal(view, payload) || d.Err() != nil || d.Remaining() != 0 {
		t.Fatal("payload field corrupted")
	}
	if &view[0] != &got[len(head)] {
		t.Fatal("BorrowBytesRef did not view the payload in place")
	}
}

// TestEncoderVectorNoBorrow: a borrow-mode encoder with no PutBytesRef
// call yields a nil payload from Vector.
func TestEncoderVectorNoBorrow(t *testing.T) {
	v := NewEncoderV(nil)
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
		t.Fatal("empty PutBytesRef should not borrow")
	}
}

// TestEncoderSecondBorrowPanics: the wire format carries the borrowed
// payload as the final frame segment, so a second borrow is a
// programming error the encoder must refuse loudly.
func TestEncoderSecondBorrowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second PutBytesRef did not panic")
		}
	}()
	v := NewEncoderV(nil)
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

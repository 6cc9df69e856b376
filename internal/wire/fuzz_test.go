package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"

	"mxn/internal/bufpool"
)

// FuzzDecoder drives the self-describing value decoder with arbitrary
// bytes. The decoder's contract under corruption is: never panic, always
// terminate, and report ErrCorrupt through Err (possibly wrapped).
func FuzzDecoder(f *testing.F) {
	// Seed with valid encodings of every supported dynamic type.
	seed := func(v any) {
		e := NewEncoder(nil)
		e.PutValue(v)
		f.Add(e.Bytes())
	}
	seed(nil)
	seed(true)
	seed(int64(-42))
	seed(3.14159)
	seed("hello, wire")
	seed([]byte{0, 1, 2, 255})
	seed([]float64{1, 2, 3.5})
	seed([]int64{-1, 0, 1 << 40})
	seed([]int{7, 8, 9})
	seed([]any{int64(1), "two", []float64{3}, []any{nil, false}})
	// And a multi-value stream as PRMI messages produce.
	e := NewEncoder(nil)
	e.PutString("method")
	e.PutUint64(99)
	e.PutUvarint(3)
	e.PutValue([]float64{1, 2})
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		// Walk the buffer with a mix of typed reads until exhausted or
		// failed; every call must return, never panic.
		for d.Err() == nil && d.Remaining() > 0 {
			switch d.Remaining() % 5 {
			case 0:
				_ = d.Value()
			case 1:
				_ = d.String()
			case 2:
				_ = d.Float64s()
			case 3:
				_ = d.Uvarint()
			case 4:
				_ = d.Ints()
			}
		}
		if err := d.Err(); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("decoder failed with %v, want ErrCorrupt", err)
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader: it must
// never panic; whenever it accepts a frame (so the checksum matched) both
// writers re-encode the payload to exactly the header+payload prefix of
// the input, followed by the padding the reader skipped; and every input,
// accepted or not, leaves the pool balanced — the reader returns its
// frame on every error, and the caller's PutFrame of an accepted one
// settles the rest.
func FuzzReadFrame(f *testing.F) {
	for _, p := range []string{"seed payload", "", "8 bytes!", "seven b", "nine byte"} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, []byte(p)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()-padding(len(p))]) // its padding cut off
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0x40, 0, 0, 0, 0, 1, 2, 3}) // claims 1 GiB, sends 3 bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := bufpool.FramesOutstanding()
		payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if d := bufpool.FramesOutstanding() - frames; d != 0 {
				t.Fatalf("rejected frame left %d frames outstanding: %v", d, err)
			}
			return
		}
		prefix := data[:8+len(payload)]
		pad := padding(len(payload))
		if len(data) < len(prefix)+pad {
			t.Fatalf("accepted a frame whose padding was cut off")
		}
		var flat, vec bytes.Buffer
		if err := WriteFrame(&flat, payload); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		half := len(payload) / 2
		if err := WriteFrameV(&vec, net.Buffers{payload[:half], payload[half:]}); err != nil {
			t.Fatalf("vectored re-encode of accepted frame failed: %v", err)
		}
		want := append(bytes.Clone(prefix), make([]byte, pad)...)
		if !bytes.Equal(flat.Bytes(), want) || !bytes.Equal(vec.Bytes(), want) {
			t.Fatalf("accepted frame does not round-trip")
		}
		bufpool.PutFrame(payload)
		if d := bufpool.FramesOutstanding() - frames; d != 0 {
			t.Fatalf("%d frames outstanding after returning the accepted one", d)
		}
	})
}

// FuzzWireFrameV round-trips arbitrary payloads through the vectored
// framer at arbitrary segment boundaries: the wire bytes must be
// bit-identical to the reference frame of the concatenated payload (and
// to the flat WriteFrame of it), and ReadFrame must recover the payload
// exactly.
func FuzzWireFrameV(f *testing.F) {
	f.Add([]byte("seed payload"), uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0}, uint16(1))
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint16(17))
	// Payloads of every length modulo 8, so of every padding.
	for n := 1; n <= 8; n++ {
		f.Add(bytes.Repeat([]byte{byte(n)}, 64+n), uint16(n))
	}

	f.Fuzz(func(t *testing.T, payload []byte, chop uint16) {
		// Derive a segmentation from chop: cut every (chop%31)+1 bytes,
		// and make every fourth segment empty to exercise zero-length
		// iovec entries.
		step := int(chop%31) + 1
		var segs net.Buffers
		for off := 0; off < len(payload); off += step {
			end := min(off+step, len(payload))
			segs = append(segs, payload[off:end])
			if len(segs)%4 == 0 {
				segs = append(segs, nil)
			}
		}

		var vec bytes.Buffer
		if err := WriteFrameV(&vec, segs); err != nil {
			t.Fatalf("WriteFrameV: %v", err)
		}
		var flat bytes.Buffer
		if err := WriteFrame(&flat, payload); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		ref := referenceFrame(payload)
		if !bytes.Equal(vec.Bytes(), ref) || !bytes.Equal(flat.Bytes(), ref) {
			t.Fatalf("frame differs from reference frame for %d segments", len(segs))
		}
		got, err := ReadFrame(&vec)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip payload mismatch")
		}
		bufpool.PutFrame(got)
	})
}

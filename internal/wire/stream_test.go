package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"unsafe"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

// shortReader hands out at most max bytes per Read, as a socket does when
// a frame arrives in pieces.
type shortReader struct {
	r   io.Reader
	max int
}

func (s shortReader) Read(p []byte) (int, error) {
	return s.r.Read(p[:min(len(p), s.max)])
}

// TestWriteFramesMatchesFrameByFrame: a batch puts on the wire exactly the
// reference frames of its messages, back to back, whatever their
// segmentation; a batch with one oversize message writes nothing.
func TestWriteFramesMatchesFrameByFrame(t *testing.T) {
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	msgs := []net.Buffers{
		{payload[:10]},
		nil,
		splitAt(payload, 1, 2, 500, 999),
		{nil, {}},
		splitAt(payload[:300], 0, 150, 150),
	}
	var want []byte
	for _, m := range msgs {
		var flat []byte
		for _, s := range m {
			flat = append(flat, s...)
		}
		want = append(want, referenceFrame(flat)...)
	}
	var got bytes.Buffer
	if err := WriteFramesLent(&got, msgs, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("batch differs from the reference frames\nreference %x\nbatch     %x", want, got.Bytes())
	}

	half := make([]byte, MaxFrame/2+1)
	var none bytes.Buffer
	if err := WriteFramesLent(&none, []net.Buffers{{payload}, {half, half}}, nil); err == nil {
		t.Fatal("batch with an oversize message accepted")
	}
	if none.Len() != 0 {
		t.Fatalf("a refused batch wrote %d bytes", none.Len())
	}
}

// TestFrameReaderReadsBatchInOneRead: the frames of a batch, sitting in the
// stream together, cost the buffered reader one read between them — where
// ReadFrame issues a header read and a payload read per frame — and, since
// the batch fits the read-ahead, no byte copied out of it.
func TestFrameReaderReadsBatchInOneRead(t *testing.T) {
	const n = 8
	msgs := make([]net.Buffers, n)
	for i := range msgs {
		msgs[i] = net.Buffers{bytes.Repeat([]byte{byte(i)}, 512*i)}
	}
	var stream bytes.Buffer
	if err := WriteFramesLent(&stream, msgs, nil); err != nil {
		t.Fatal(err)
	}
	frames := bufpool.FramesOutstanding()
	fr := NewFrameReader(&stream, 64<<10)
	defer fr.Close()
	before, copied := mReads.Value(), mBytesReadCopied.Value()
	for i := 0; i < n; i++ {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msgs[i][0]) {
			t.Fatalf("frame %d differs", i)
		}
		bufpool.PutFrame(got)
	}
	if d := mReads.Value() - before; d != 1 {
		t.Fatalf("%d frames took %d reads, want 1", n, d)
	}
	if d := mBytesReadCopied.Value() - copied; d != 0 {
		t.Fatalf("a batch that fits the read-ahead had %d bytes copied out of it, want 0", d)
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after the batch: %v, want io.EOF", err)
	}
	if d := bufpool.FramesOutstanding() - frames; d != 0 {
		t.Fatalf("%d frames outstanding", d)
	}
}

// FuzzFrameStream writes a random sequence of frames, each cut into random
// segments, with the multi-frame writer, and reads it back through a
// buffered reader — its read-ahead smaller than some frames — from a
// stream that returns short reads. The frames come back bit-identical and
// the stream then ends cleanly; with one byte of a frame's checksum or
// payload flipped, the frames before it still come back and that frame
// reports ErrCorrupt. Every frame starts 8-byte aligned, and one handed up
// as a view of the reader's slab has no capacity past its bytes. The
// frames are held until the stream is read and released in an order the
// input picks; every frame and slab returns to the pool either way.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte("stream of frames"), []byte{3, 0, 5, 1}, uint8(3), uint16(0))
	f.Add(bytes.Repeat([]byte{0xA5}, 5000), []byte{200, 7, 0, 255, 9}, uint8(1), uint16(77))
	f.Add([]byte{1, 2, 3}, []byte{}, uint8(0), uint16(5))

	f.Fuzz(func(t *testing.T, data, plan []byte, short uint8, flip uint16) {
		// Each plan byte is one frame: its length (scaled so some frames
		// outgrow the read-ahead) and where its payload is cut.
		var payloads [][]byte
		var msgs []net.Buffers
		off := 0
		for _, b := range plan {
			n := 0
			if len(data) > 0 {
				n = int(b) * (1 + len(data)/64) % (len(data) + 1)
			}
			p := make([]byte, n)
			for i := range p {
				p[i] = data[(off+i)%len(data)]
			}
			off += n
			cut := int(b) % (n + 1)
			payloads = append(payloads, p)
			msgs = append(msgs, net.Buffers{p[:cut], nil, p[cut:]})
		}
		var stream bytes.Buffer
		if err := WriteFramesLent(&stream, msgs, nil); err != nil {
			t.Fatal(err)
		}
		wire := stream.Bytes()
		bad := -1 // the frame whose byte is flipped
		if flip != 0 && len(payloads) > 0 {
			bad = int(flip) % len(payloads)
			start := 0
			for _, p := range payloads[:bad] {
				start += 8 + len(p) + padding(len(p))
			}
			// A checksum or payload byte: the length stays intact.
			wire[start+4+int(flip)%(4+len(payloads[bad]))] ^= 0x5A
		}

		frames, slabs := bufpool.FramesOutstanding(), bufpool.SlabsOutstanding()
		fr := NewFrameReader(shortReader{bytes.NewReader(wire), int(short)%17 + 1}, 16+int(short)%64)
		type frame struct {
			i int
			b []byte
		}
		var held []frame
		for i, want := range payloads {
			got, err := fr.ReadFrame()
			if i == bad {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("frame %d with a flipped byte: %v, want ErrCorrupt", i, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d differs", i)
			}
			if len(got) > 0 && uintptr(unsafe.Pointer(unsafe.SliceData(got)))%8 != 0 {
				t.Fatalf("frame %d is not 8-byte aligned", i)
			}
			if bufpool.ViewSlab(got) != nil && cap(got) != len(got) {
				t.Fatalf("frame %d is a view of capacity %d beyond its %d bytes", i, cap(got), len(got))
			}
			held = append(held, frame{i, got})
		}
		// Every frame is held until the stream is read, then all are
		// released in an order the input picks, the last after Close, each
		// still intact.
		if bad < 0 {
			if _, err := fr.ReadFrame(); err != io.EOF {
				t.Fatalf("after the last frame: %v, want io.EOF", err)
			}
		}
		for i := range held {
			j := i + int(flip^uint16(i)*31)%(len(held)-i)
			held[i], held[j] = held[j], held[i]
		}
		for k, h := range held {
			if k == len(held)-1 {
				fr.Close()
			}
			if !bytes.Equal(h.b, payloads[h.i]) {
				t.Fatalf("frame %d changed while held", h.i)
			}
			bufpool.PutFrame(h.b)
		}
		fr.Close()
		if d := bufpool.FramesOutstanding() - frames; d != 0 {
			t.Fatalf("%d frames outstanding", d)
		}
		if d := bufpool.SlabsOutstanding() - slabs; d != 0 {
			t.Fatalf("%d slabs outstanding", d)
		}
	})
}

// TestHeldViewSurvivesRefill: the first frame of a stream, held as a view
// of the reader's slab while a thousand more frames are read through short
// reads and refills, keeps its bytes and CRC; and appending to it cannot
// reach the frame after it, which is read intact.
func TestHeldViewSurvivesRefill(t *testing.T) {
	payload := func(i int) []byte {
		p := make([]byte, 1+(i*7919)%3000)
		for j := range p {
			p[j] = byte(i*131 + j)
		}
		return p
	}
	msgs := make([]net.Buffers, 1001)
	for i := range msgs {
		msgs[i] = net.Buffers{payload(i)}
	}
	var stream bytes.Buffer
	if err := WriteFramesLent(&stream, msgs, nil); err != nil {
		t.Fatal(err)
	}
	frames := bufpool.FramesOutstanding()
	fr := NewFrameReader(shortReader{&stream, 1500}, 64<<10)
	first, err := fr.ReadFrame()
	if err != nil || !bytes.Equal(first, payload(0)) {
		t.Fatalf("first frame: %v", err)
	}
	if bufpool.ViewSlab(first) == nil || cap(first) != len(first) {
		t.Fatalf("first frame is not a view of capacity len: cap %d, len %d", cap(first), len(first))
	}
	sum := crc32c(0, first)
	grown := append(first, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE)
	if unsafe.SliceData(grown) == unsafe.SliceData(first) {
		t.Fatal("append to a view grew it in place")
	}
	reads := mReads.Value()
	for i := 1; i < len(msgs); i++ {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, payload(i)) {
			t.Fatalf("frame %d differs", i)
		}
		bufpool.PutFrame(got)
	}
	if d := mReads.Value() - reads; d < 100 {
		t.Fatalf("a thousand frames read in %d reads: no refills to survive", d)
	}
	if !bytes.Equal(first, payload(0)) || crc32c(0, first) != sum {
		t.Fatal("the held view changed while later frames were read")
	}
	fr.Close()
	bufpool.PutFrame(first)
	if d := bufpool.FramesOutstanding() - frames; d != 0 {
		t.Fatalf("%d frames outstanding", d)
	}
}

// TestPinnedSlabsBounded: a receiver that holds every frame of a stream of
// 10,000 small frames pins at most pinMax+1 slabs of the reader; past
// that, frames are copied out into frames of their own, as a reader
// without views does. Released, everything is back: the frame count and
// the pool's footprint return to where a first pass left them.
func TestPinnedSlabsBounded(t *testing.T) {
	const n = 10000
	var stream bytes.Buffer
	msgs := make([]net.Buffers, n)
	for i := range msgs {
		msgs[i] = net.Buffers{bytes.Repeat([]byte{byte(i)}, 100+i%200)}
	}
	if err := WriteFramesLent(&stream, msgs, nil); err != nil {
		t.Fatal(err)
	}
	wire := stream.Bytes()
	footprint := func() int64 { return obs.Default().Snapshot().Gauges["bufpool.footprint_bytes"] }
	pass := func() {
		frames := bufpool.FramesOutstanding()
		fr := NewFrameReader(bytes.NewReader(wire), 64<<10)
		held := make([][]byte, n)
		slabs := map[*byte]int{}
		copied := 0
		for i := range held {
			got, err := fr.ReadFrame()
			if err != nil || !bytes.Equal(got, msgs[i][0]) {
				t.Fatalf("frame %d: %v", i, err)
			}
			held[i] = got
			if s := bufpool.ViewSlab(got); s != nil {
				slabs[unsafe.SliceData(s)] = cap(s)
			} else {
				copied++
			}
		}
		pinned := 0
		for _, c := range slabs {
			pinned += c
		}
		b := bufpool.Get(64 << 10)
		bound := (pinMax + 1) * cap(b)
		bufpool.Put(b)
		if pinned > bound {
			t.Errorf("held frames pin %d slabs, %d bytes, over the bound of %d", len(slabs), pinned, bound)
		}
		if copied == 0 {
			t.Error("no frame was copied out past the bound")
		}
		fr.Close()
		for _, b := range held {
			bufpool.PutFrame(b)
		}
		if d := bufpool.FramesOutstanding() - frames; d != 0 {
			t.Errorf("%d frames outstanding", d)
		}
	}
	pass()
	base, slabs := footprint(), bufpool.SlabsOutstanding()
	pass()
	if d := footprint() - base; d != 0 {
		t.Errorf("the footprint grew by %d bytes over a second pass", d)
	}
	if d := bufpool.SlabsOutstanding() - slabs; d != 0 {
		t.Errorf("%d slabs outstanding", d)
	}
}

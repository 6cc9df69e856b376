package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"mxn/internal/bufpool"
)

// placeHead is the head of a test frame: its index, then padding, so the
// payload region starts 8-byte aligned.
const placeHead = 16

// testPosting is a posting for one test frame: the head it expects, and
// the destination its region is placed into, cut into segments.
type testPosting struct {
	head     []byte
	dst      []byte
	segs     net.Buffers
	claimed  int // claims, at most one
	finished int
	ok       bool
}

func (p *testPosting) Region() (off, n, align int) { return placeHead, len(p.dst), 8 }
func (p *testPosting) Segs() net.Buffers           { return p.segs }
func (p *testPosting) Spoil()                      {}
func (p *testPosting) Finish(frame []byte, ok bool) bool {
	p.finished++
	p.ok = ok
	return ok
}

// testPlacer arms frame i's posting once it has been offered armAfter[i]
// claims for frames, so postings made mid-frame are exercised too.
type testPlacer struct {
	posts    []*testPosting
	armAfter []int
	offers   []int
}

func (pl *testPlacer) Claim(head []byte, n int, _ Kicker) Placement {
	if len(head) < placeHead {
		return nil
	}
	i := int(binary.LittleEndian.Uint64(head))
	if i >= len(pl.posts) || pl.posts[i] == nil || pl.posts[i].claimed > 0 {
		return nil
	}
	if pl.offers[i]++; pl.offers[i] <= pl.armAfter[i] {
		return nil
	}
	p := pl.posts[i]
	if !bytes.Equal(head[:placeHead], p.head) || n != placeHead+len(p.dst) {
		return nil
	}
	p.claimed++
	return p
}

func (pl *testPlacer) Unclaimed([]byte) {}

// FuzzPlacedFrameStream reads a random stream of frames, some of them
// posted — armed from the start or only after the reader has asked about
// them a few times, so mid-frame postings take their rest — through a
// placing reader over a stream of short reads. Every posted frame that
// arrives is bit-identical across its returned frame (head and any prefix
// read before the claim) and its destination, every other frame comes
// back whole, a flipped byte fails the frame with ErrCorrupt and spoils
// its posting, no posting is claimed twice, and every frame returns to
// the pool.
func FuzzPlacedFrameStream(f *testing.F) {
	f.Add([]byte("placed frames"), []byte{3, 200, 17, 255}, uint8(5), uint16(0))
	f.Add(bytes.Repeat([]byte{0x3C}, 999), []byte{255, 1, 130}, uint8(200), uint16(3001))
	f.Add([]byte{9}, []byte{0}, uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, data, plan []byte, short uint8, flip uint16) {
		if len(plan) > 6 || len(data) == 0 {
			return
		}
		// Each plan byte is one frame: its payload length (some at
		// PlaceMin and beyond, in whole elements), whether it is posted,
		// how many claims arm its posting, and its destination's cuts.
		var frames [][]byte
		pl := &testPlacer{}
		for i, b := range plan {
			n := 8 * (int(b) * 61 % 257)
			if b&1 == 1 {
				n += PlaceMin
			}
			fr := make([]byte, placeHead+n)
			binary.LittleEndian.PutUint64(fr, uint64(i))
			for k := placeHead; k < len(fr); k++ {
				fr[k] = data[(i+k)%len(data)] ^ byte(k>>9)
			}
			frames = append(frames, fr)
			var p *testPosting
			if b&2 == 2 {
				p = &testPosting{head: fr[:placeHead], dst: make([]byte, n)}
				for rest, cut := p.dst, 1+int(b)*37; len(rest) > 0; {
					k := min(len(rest), cut)
					p.segs = append(p.segs, rest[:k])
					rest, cut = rest[k:], cut*3+int(short)
				}
			}
			pl.posts = append(pl.posts, p)
			pl.armAfter = append(pl.armAfter, int(b>>2)%4)
			pl.offers = append(pl.offers, 0)
		}
		msgs := make([]net.Buffers, len(frames))
		for i, fr := range frames {
			msgs[i] = net.Buffers{fr}
		}
		var stream bytes.Buffer
		if err := WriteFrames(&stream, msgs); err != nil {
			t.Fatal(err)
		}
		wire := stream.Bytes()
		bad := -1
		if flip != 0 && len(frames) > 0 {
			bad = int(flip) % len(frames)
			start := 0
			for _, fr := range frames[:bad] {
				start += 8 + len(fr)
			}
			// A byte of the payload, past the head that decides the claim.
			if n := len(frames[bad]) - placeHead; n > 0 {
				wire[start+8+placeHead+int(flip)%n] ^= 0x81
			} else {
				bad = -1
			}
		}

		out := bufpool.FramesOutstanding()
		fr := NewFrameReader(shortReader{bytes.NewReader(wire), int(short)%4096 + 1}, 64<<10)
		fr.SetPlacer(pl, nil)
		for i, want := range frames {
			got, err := fr.ReadFrame()
			p := pl.posts[i]
			if i == bad {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("frame %d with a flipped byte: %v, want ErrCorrupt", i, err)
				}
				if p != nil && p.claimed == 1 && (p.finished != 1 || p.ok) {
					t.Fatalf("frame %d: corrupt placed frame finished %d times, ok %v", i, p.finished, p.ok)
				}
				break
			}
			if err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			placed := fr.TakePlaced()
			switch {
			case placed == nil:
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d read whole differs", i)
				}
			case p == nil || placed != Placement(p) || p.finished != 1 || !p.ok:
				t.Fatalf("frame %d: placement not its own posting, or not finished ok once", i)
			default:
				k := len(got) - placeHead // the prefix read before the claim
				if k < 0 || k%8 != 0 || !bytes.Equal(got, want[:len(got)]) || !bytes.Equal(p.dst[k:], want[len(got):]) {
					t.Fatalf("frame %d placed: %d bytes in the frame, destination differs", i, len(got))
				}
			}
			bufpool.PutFrame(got)
		}
		for i, p := range pl.posts {
			if p != nil && p.claimed > 1 {
				t.Fatalf("posting %d claimed %d times", i, p.claimed)
			}
		}
		if d := bufpool.FramesOutstanding() - out; d != 0 {
			t.Fatalf("%d frames outstanding", d)
		}
	})
}

// sliceLoan is a Loan over fixed segments.
type sliceLoan struct {
	segs     net.Buffers
	released int
}

func (l *sliceLoan) Segs() net.Buffers { return l.segs }
func (l *sliceLoan) Release()          { l.released++ }

// TestPutLoanMatchesPutBytesRef: a lent payload's frame is bit-identical
// to the frame of the same bytes recorded with PutBytesRef, and a nil loan
// writes exactly the head a receiver posting for it expects.
func TestPutLoanMatchesPutBytesRef(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	l := &sliceLoan{segs: net.Buffers{payload[:5], payload[5:2048], nil, payload[2048:]}}
	ref, lent, posted := NewEncoder(nil), NewEncoder(nil), NewEncoder(nil)
	for _, e := range []*Encoder{ref, lent, posted} {
		e.PutString("head")
	}
	ref.PutBytesRef(payload)
	lent.PutLoan(l, len(payload))
	posted.PutLoan(nil, len(payload))
	head, p := ref.Vector()
	var want, got bytes.Buffer
	if err := WriteFrames(&want, []net.Buffers{{head, p}}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFramesLent(&got, []net.Buffers{{lent.Bytes()}}, []Loan{lent.Loan()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("lent frame differs from the PutBytesRef frame")
	}
	if !bytes.Equal(posted.Bytes(), head) || posted.Loan() != nil {
		t.Fatal("a nil loan's head differs from the PutBytesRef head")
	}
	if l.released != 0 {
		t.Fatal("writing a frame released its loan")
	}
}

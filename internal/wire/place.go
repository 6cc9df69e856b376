// Placing frame reads: a frame whose payload a receiver has posted memory
// for is read with readv(2) straight into that memory, not into a pooled
// frame. The frame's bytes, its CRC-32C (folded over them in wire order)
// and its framing are those of any other frame; only where its payload
// lands differs.

package wire

import (
	"errors"
	"fmt"
	"io"
	"net"

	"mxn/internal/bufpool"
	"mxn/internal/obs"
)

// mBytesPlaced counts payload bytes read straight into posted memory.
var mBytesPlaced = obs.Default().Counter("wire.bytes_placed")

// ErrWithdrawn reports a placed frame whose posting was withdrawn while
// the frame arrived: its bytes are not where anyone expects them, so the
// read fails and the stream is lost, as on a torn connection.
var ErrWithdrawn = errors.New("wire: placed frame's posting was withdrawn")

// PlaceMin is the smallest frame a placing reader offers its Placer: a
// smaller frame is read whole with the frames around it and handed up
// in place, which costs less than a placement would save.
const PlaceMin = 64 << 10

// PlaceHead is how many of a frame's first bytes a placing reader offers,
// once: a posting whose head is longer is never claimed.
const PlaceHead = 128

// A Placer knows where posted frames go: the posting registry of the
// receiving side.
type Placer interface {
	// Claim offers head, the first PlaceHead bytes of a frame of n bytes,
	// once, and returns the placement that claims the frame for this
	// reader, or nil. k forces the reader off the frame should the
	// placement be withdrawn while the reader is placing it.
	Claim(head []byte, n int, k Kicker) Placement
}

// A Kicker forces a reader blocked inside a placed frame to give it up:
// the read fails, and the stream it read is lost.
type Kicker interface{ Kick() }

// A Placement is a claimed posting: where a frame's region goes.
type Placement interface {
	// Region returns the frame byte range [off, off+n) that is placed:
	// the frame bytes before and after it stay in the frame the reader
	// returns.
	Region() (off, n int)
	// Segs returns where the region's bytes go, in order; they total n.
	Segs() net.Buffers
	// Finish ends the reader's part: ok, the frame arrived whole with a
	// good CRC, and frame is the pooled frame returned in its place (the
	// bytes outside the region); not ok, it did not, and the placement is
	// spoiled. Finish is called exactly once per claim, and reports
	// whether the placement still stands: false means it was withdrawn
	// meanwhile, and the reader fails the frame, so that the link resends
	// it.
	Finish(frame []byte, ok bool) bool
	// Spoil rejects a finished frame its reader's consumer would not
	// deliver (a duplicate or out-of-sequence frame).
	Spoil()
}

// placing is a FrameReader's placer and the kicker its claims carry.
type placing struct {
	p Placer
	k Kicker
}

// vecReader reads into several buffers in order, like readv(2).
type vecReader interface {
	readv(bufs [][]byte) (int, error)
}

// plainVec is the vecReader of a stream with no descriptor: one Read
// into the first buffer.
type plainVec struct{ r io.Reader }

func (v plainVec) readv(bufs [][]byte) (int, error) { return v.r.Read(bufs[0]) }

// SetPlacer makes the reader offer frames of PlaceMin bytes or more to p
// (nil stops it) once their first PlaceHead bytes have arrived; k is
// handed to every claim. It may be called while another goroutine reads.
func (fr *FrameReader) SetPlacer(p Placer, k Kicker) {
	if p == nil {
		fr.place.Store(nil)
		return
	}
	fr.place.Store(&placing{p: p, k: k})
}

// TakePlaced returns the placement of the frame the last ReadFrame
// returned, nil when it was not placed, and forgets it.
func (fr *FrameReader) TakePlaced() Placement {
	p := fr.placed
	fr.placed = nil
	return p
}

// claim holds the header and first PlaceHead bytes of a frame of n bytes
// in the read-ahead and offers those bytes to pl.
func (fr *FrameReader) claim(pl *placing, n int) (Placement, error) {
	k := min(n, PlaceHead, fr.size-8)
	if err := fr.fill(8 + k); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return pl.p.Claim(fr.buf[fr.lo+8:fr.lo+8+k], n, pl.k), nil
}

// readPlaced reads a claimed frame of n bytes whose header says sum: the
// bytes before the region go to the frame, the region to the placement's
// segments — what the read-ahead holds by copy, the rest by readv — and
// the bytes after it to the frame again; the padding is left for the next
// header.
func (fr *FrameReader) readPlaced(p Placement, n int, sum uint32) ([]byte, error) {
	off, plen := p.Region()
	size := n - plen
	buf := bufpool.GetFrame(size)
	fail := func(err error) ([]byte, error) {
		p.Finish(nil, false)
		bufpool.PutFrame(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	// The frame bytes before what is placed.
	if err := fr.readFull(buf[:off]); err != nil {
		return fail(err)
	}
	crc := crc32c(0, buf[:off])
	// The region, segment by segment.
	iov := fr.iov[:0]
	for _, seg := range p.Segs() {
		if len(seg) > 0 {
			iov = append(iov, seg)
		}
	}
	fr.iov = iov[:0] // the scratch a persistent reader reuses
	for len(iov) > 0 {
		var k int
		var err error
		if fr.lo < fr.hi {
			k = copy(iov[0], fr.buf[fr.lo:fr.hi])
			fr.lo += k
			mBytesReadCopied.Add(uint64(k))
		} else {
			if fr.vr == nil {
				fr.vr = newVecReader(fr.r)
			}
			mReads.Inc()
			k, err = fr.vr.readv(iov)
			fr.skew = (fr.skew + k) & 7
		}
		for k > 0 {
			m := min(k, len(iov[0]))
			crc = crc32c(crc, iov[0][:m])
			if iov[0] = iov[0][m:]; len(iov[0]) == 0 {
				iov = iov[1:]
			}
			k -= m
		}
		if err != nil && len(iov) > 0 {
			clear(fr.iov[:cap(fr.iov)])
			return fail(err)
		}
	}
	clear(fr.iov[:cap(fr.iov)])
	// The frame bytes after the region.
	fr.short = true
	if err := fr.readFull(buf[off:size]); err != nil {
		return fail(err)
	}
	if crc = crc32c(crc, buf[off:size]); crc != sum {
		mChecksumFailures.Inc()
		return fail(fmt.Errorf("%w: frame checksum mismatch (got %08x, header says %08x)", ErrCorrupt, crc, sum))
	}
	fr.skip = padding(n)
	buf = buf[:size]
	if !p.Finish(buf, true) {
		bufpool.PutFrame(buf)
		return nil, ErrWithdrawn
	}
	fr.placed = p
	mFramesRead.Inc()
	mBytesRead.Add(uint64(8 + n))
	mBytesPlaced.Add(uint64(plen))
	return buf, nil
}

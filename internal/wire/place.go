// Placing frame reads: a frame whose payload a receiver has posted memory
// for is read with readv(2) straight into that memory, not into a pooled
// frame. The frame's bytes, its CRC-32C (folded over them in wire order)
// and its framing are those of any other frame; only where its payload
// lands differs.

package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
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
// smaller frame fits the read-ahead, which has it copied before any
// placement could take effect.
const PlaceMin = 64 << 10

// A Placer knows where posted frames go: the posting registry of the
// receiving side.
type Placer interface {
	// Claim offers head, the first bytes of a frame of n bytes — what has
	// been read of it so far — and returns the placement that claims the
	// frame for this reader, or nil. k forces the reader off the frame
	// should the placement be withdrawn while the reader is placing it.
	Claim(head []byte, n int, k Kicker) Placement
	// Unclaimed reports a frame of PlaceMin bytes or more that was read
	// whole into a pooled frame: its message is on its way up, and no
	// later posting may take a frame meant for that message's receiver.
	// Its last bytes were read after the last Claim, so a posting made
	// since then may be waiting for this very frame: the Placer must
	// decide that in the same step as it records the frame.
	Unclaimed(frame []byte)
}

// A Kicker forces a reader blocked inside a placed frame to give it up:
// the read fails, and the stream it read is lost.
type Kicker interface{ Kick() }

// A Placement is a claimed posting: where a frame's region goes.
type Placement interface {
	// Region returns the frame byte range [off, off+n) that is placed, and
	// the alignment a region read starting mid-frame keeps (an element
	// size): the frame bytes before the region, and when the claim came
	// mid-frame, the region's bytes already read rounded up to align, stay
	// in the frame the reader returns. What follows the region does too.
	Region() (off, n, align int)
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
// (nil stops it), before reading their payload and again before each
// later read of it; k is handed to every claim. It may be called while
// another goroutine reads.
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

// readPlaced reads the rest of a claimed frame of n bytes: got bytes of it
// are already in buf (nil when none are) with crc folded over them. The
// bytes before the region go to the frame, the region to the placement's
// segments — what the read-ahead holds by copy, the rest by readv — and
// the bytes after it to the frame again.
func (fr *FrameReader) readPlaced(p Placement, n int, sum uint32, buf []byte, got int, crc uint32) ([]byte, error) {
	off, plen, align := p.Region()
	pre := max(off, got)
	if r := (pre - off) % align; r != 0 {
		pre += align - r
	}
	pre = min(pre, off+plen)
	size := pre + n - off - plen
	if buf == nil {
		buf = bufpool.GetFrame(size)
	} else if len(buf) < size {
		buf = growFrame(buf, size)
	}
	fail := func(err error) ([]byte, error) {
		p.Finish(nil, false)
		bufpool.PutFrame(buf)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	// The frame bytes before what is placed.
	for got < pre {
		k, err := fr.read(buf[got:pre])
		crc = crc32.Update(crc, frameTable, buf[got:got+k])
		if got += k; err != nil && got < pre {
			return fail(err)
		}
	}
	// The region from pre on, segment by segment.
	iov, skip := fr.iov[:0], pre-off
	for _, seg := range p.Segs() {
		if skip >= len(seg) {
			skip -= len(seg)
			continue
		}
		iov = append(iov, seg[skip:])
		skip = 0
	}
	fr.iov = iov[:0] // the scratch a persistent reader reuses
	for len(iov) > 0 {
		var k int
		var err error
		if fr.lo < fr.hi {
			k = copy(iov[0], fr.buf[fr.lo:fr.hi])
			fr.lo += k
		} else {
			if fr.vr == nil {
				fr.vr = newVecReader(fr.r)
			}
			mReads.Inc()
			k, err = fr.vr.readv(iov)
		}
		for k > 0 {
			m := min(k, len(iov[0]))
			crc = crc32.Update(crc, frameTable, iov[0][:m])
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
	for got = pre; got < size; {
		k, err := fr.read(buf[got:size])
		crc = crc32.Update(crc, frameTable, buf[got:got+k])
		if got += k; err != nil && got < size {
			return fail(err)
		}
	}
	if crc != sum {
		mChecksumFailures.Inc()
		return fail(fmt.Errorf("%w: frame checksum mismatch (got %08x, header says %08x)", ErrCorrupt, crc, sum))
	}
	buf = buf[:size]
	if !p.Finish(buf, true) {
		bufpool.PutFrame(buf)
		return nil, ErrWithdrawn
	}
	fr.placed = p
	mFramesRead.Inc()
	mBytesRead.Add(uint64(8 + n))
	mBytesPlaced.Add(uint64(off + plen - pre))
	return buf, nil
}

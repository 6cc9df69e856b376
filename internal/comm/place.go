// Posted receives: a receiver that knows the exact head of a message it
// expects from a remote peer — sender, tag, group and its payload codec's
// fields, all of which it can encode itself — posts it together with the
// memory the message's payload belongs in. The peer's connection, when it
// can place frames (a session over TCP), offers each large frame's first
// bytes to the registry here, and a frame whose head matches a posting is
// read straight into the posted memory: the kernel's socket copy is the
// payload's only copy on the receive side.
//
// The session trailer follows the payload, so a frame's bytes land before
// anyone knows it is intact and in sequence. A posting is therefore
// claimed by at most one reader and completes only when that frame
// arrived whole with a good CRC (the reader's Finish), the session took
// its sequence number (no Spoil), and it was delivered here. Any other end
// spoils it, and a spoiled posting is never re-armed: the frame's
// retransmission, or the current frame, arrives as an ordinary pooled
// frame and is unpacked over the posting's whole region. Withdraw, which
// the receiver calls before its memory is handed back to its caller,
// forces a reader still placing a frame off it and waits until it is, so
// no byte lands after it returns.

package comm

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"

	"mxn/internal/obs"
	"mxn/internal/wire"
)

var (
	mPostings       = obs.Default().Counter("comm.postings")
	mPostingsPlaced = obs.Default().Counter("comm.postings_placed")
	mPostingsKicked = obs.Default().Counter("comm.postings_kicked")
)

// placingConn is a connection that can read large frames straight into
// posted memory (a session.Conn).
type placingConn interface{ SetPlacer(wire.Placer) }

// reclaimer is a connection that can give a loan back early (a session
// keeps lent frames until the peer acknowledges them).
type reclaimer interface{ Reclaim(wire.Loan) bool }

// PostBody writes a posted message's payload head: the codec fields that
// follow the codec tag, ending with the payload's length prefix and
// padding exactly as the sender's codec writes them (wire.PutLoan or
// PutBytesRef).
type PostBody interface {
	EncodePostBody(e *wire.Encoder)
}

// Posting state.
const (
	postIdle    = iota // not posted
	postArmed          // posted, no frame claimed it
	postClaimed        // a reader is placing a frame into it
	postLanded         // the frame arrived whole; awaiting delivery
	postDone           // delivered
	postSpoiled        // a claimed frame failed or was rejected
)

// Posting is a receive posted ahead of its message. The caller fills the
// exported fields, Post registers it, and Withdraw ends it; a posting is
// reused across Post/Withdraw cycles, so a persistent receiver posts
// without allocating.
type Posting struct {
	From, Tag int         // sender's group rank and the message tag
	Codec     byte        // payload codec tag (RegisterRemotePayload)
	Body      PostBody    // the codec's head fields
	Bytes     int         // payload bytes
	Align     int         // element size: a mid-frame claim places whole elements
	Dst       net.Buffers // where the payload goes, in order

	reg       *registry // set by the first Post
	head      []byte    // the expected frame head
	state     int
	kick      wire.Kicker
	seq       uint64 // the claimed frame's place in the read order
	frame     *byte  // the landed frame's first byte
	landedLen int    // the landed frame's length, the link's trailer included
}

// registry is one remote peer's postings; it is the wire.Placer of the
// peer's connection.
type registry struct {
	mu      sync.Mutex
	cond    *sync.Cond
	placing bool // the connection offers frames (SetPlacer took)
	posts   []*Posting
	enc     wire.Encoder
	// passed are the heads of large frames read unplaced and not yet
	// delivered, and lost the frames that landed in a posting withdrawn
	// before their delivery; both are short, and bounded.
	passed []passedFrame
	lost   []lostFrame
	seq    uint64 // large frames read: claimed or passed
	// busy is len(posts)+len(passed)+len(lost), so that delivering a
	// frame while there are none costs no lock.
	busy atomic.Int32
}

// count refreshes busy; the caller holds mu and has just changed one of
// the lists.
func (g *registry) count() { g.busy.Store(int32(len(g.posts) + len(g.passed) + len(g.lost))) }

// passedFrame is a large frame read into a pooled frame: its first bytes,
// and the frame, to forget it by at delivery.
type passedFrame struct {
	head  [passedHead]byte
	n     int
	frame *byte
	seq   uint64
}

// passedHead bounds the head bytes a passed frame keeps; a posting whose
// head is longer is compared on this prefix.
const passedHead = 96

// lostFrame is a landed frame whose posting was withdrawn first.
type lostFrame struct {
	frame *byte
	n     int // the frame's length as read
}

// maxPassed bounds passed and lost; the oldest entry goes first.
const maxPassed = 16

// Post registers p for the message its fields describe, sent to this
// rank. It reports false — and registers nothing — when the sender is not
// behind a connection that places frames; the message then arrives as any
// other. A posted message may still arrive unplaced (sent before Post, too
// small a frame, a spoiled posting): the receiver handles both forms.
//
// A posting takes the first matching frame the connection reads after it,
// so Post refuses when a message it would match has been read already —
// it is in this rank's mailbox, or read and on its way there — since the
// frame it would take is then a later message's.
func (c *Comm) Post(p *Posting) bool {
	st := c.group.world.st()
	from, me := c.group.ranks[p.From], c.group.ranks[c.rank]
	rp := st.remote[from]
	if rp == nil || !rp.reg.placing || p.Bytes < wire.PlaceMin {
		return false
	}
	g := &rp.reg
	g.mu.Lock()
	defer g.mu.Unlock()
	e := &g.enc
	e.Reset()
	e.PutUvarint(uint64(from))
	e.PutUvarint(uint64(me))
	e.PutInt64(int64(p.Tag))
	e.PutUint64(c.group.gid)
	e.PutByte(p.Codec)
	p.Body.EncodePostBody(e)
	p.head = append(p.head[:0], e.Bytes()...)
	for i := range g.passed {
		f := &g.passed[i]
		if k := min(len(p.head), passedHead); f.n >= k && bytes.Equal(f.head[:k], p.head[:k]) {
			return false
		}
	}
	if st.boxes[me].has(c.group.gid, from, p.Tag) {
		return false
	}
	p.reg, p.state, p.kick, p.frame = g, postArmed, nil, nil
	g.posts = append(g.posts, p)
	g.count()
	mPostings.Inc()
	return true
}

// Withdraw ends a posting, whatever its state: a reader still placing a
// frame into it is forced off (its connection is lost, and a session
// resumes and replays) and waited for, so no byte lands in the posted
// memory after Withdraw returns. Withdrawing a posting that is not
// posted is a no-op.
func (c *Comm) Withdraw(p *Posting) {
	g := p.reg
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if p.state == postIdle {
		return
	}
	if p.state == postClaimed {
		mPostingsKicked.Inc()
		p.kick.Kick()
		for p.state == postClaimed {
			g.cond.Wait()
		}
	}
	for i, q := range g.posts {
		if q == p {
			g.posts = append(g.posts[:i], g.posts[i+1:]...)
			g.posts[len(g.posts):cap(g.posts)][0] = nil
			break
		}
	}
	if p.state == postLanded {
		// Its frame is on its way up without its payload, which it left
		// in memory that is no longer posted: it is dropped on delivery.
		if len(g.lost) == maxPassed {
			g.lost = append(g.lost[:0], g.lost[1:]...)
		}
		g.lost = append(g.lost, lostFrame{frame: p.frame, n: p.landedLen})
	}
	p.state, p.kick, p.frame = postIdle, nil, nil
	g.count()
}

// Reclaim asks the connection holding a loan lent to group rank to to
// give it back now (see session.Conn.Reclaim). It reports whether the
// connection still held it.
func (c *Comm) Reclaim(to int, l wire.Loan) bool {
	rp := c.group.world.st().remote[c.group.ranks[to]]
	if rp == nil {
		return false
	}
	r, ok := rp.conn.(reclaimer)
	return ok && r.Reclaim(l)
}

// Claim implements wire.Placer: the armed posting whose head the frame
// begins with, and whose payload it has room for followed by at most a
// trailer, is claimed for the reader.
func (g *registry) Claim(head []byte, n int, k wire.Kicker) wire.Placement {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.posts {
		if p.state == postArmed && p.fits(head, n) {
			g.seq++
			p.state, p.kick, p.seq = postClaimed, k, g.seq
			return p
		}
	}
	return nil
}

// fits reports whether a frame of n bytes beginning with head is the
// message p expects: its head matches, and it has room for p's payload
// followed by at most a trailer.
func (p *Posting) fits(head []byte, n int) bool {
	tail := n - len(p.head) - p.Bytes
	return len(head) >= len(p.head) && bytes.Equal(head[:len(p.head)], p.head) && tail >= 0 && tail <= maxTrailer
}

// maxTrailer bounds the bytes a placed frame may carry after its payload:
// the link's own trailer (a session's is 17 bytes).
const maxTrailer = 64

// Unclaimed implements wire.Placer: the frame's head is kept until the
// frame is delivered, for Post to see. A posting the frame would have
// fitted was armed after the reader's last Claim, while the frame's last
// bytes arrived; it is spoiled, in the same step, so that it cannot take
// a later frame with the same head (the next message of an unfenced
// transfer has one): its message is this frame, which arrives pooled.
func (g *registry) Unclaimed(frame []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.posts {
		if p.state == postArmed && p.fits(frame, len(frame)) {
			p.state = postSpoiled
		}
	}
	if len(g.passed) == maxPassed {
		g.passed = append(g.passed[:0], g.passed[1:]...)
	}
	g.seq++
	f := passedFrame{frame: &frame[0], seq: g.seq}
	f.n = copy(f.head[:], frame)
	g.passed = append(g.passed, f)
	g.count()
}

// landed returns the placed payload bytes of buf, a delivered frame,
// when a posting landed it, and marks that posting delivered; 0 when it
// was not placed. lost reports a frame whose posting was withdrawn before
// it was delivered: its payload is gone, and the frame must be dropped.
func (g *registry) landed(buf []byte) (placed int, lost bool) {
	if g.busy.Load() == 0 || len(buf) == 0 {
		return 0, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.posts {
		if p.state == postLanded && p.frame == &buf[0] && len(buf) <= p.landedLen && bytes.HasPrefix(buf, p.head) {
			p.state = postDone
			mPostingsPlaced.Inc()
			g.forgetBefore(p.seq)
			return len(p.head) + p.Bytes - len(buf), false
		}
	}
	for i, f := range g.lost {
		if f.frame == &buf[0] && len(buf) <= f.n {
			g.lost = append(g.lost[:i], g.lost[i+1:]...)
			g.count()
			return 0, true
		}
	}
	return 0, false
}

// delivered forgets buf's passed head once its message is in a mailbox
// (or dropped): from then on, Post sees the mailbox instead.
func (g *registry) delivered(buf []byte) {
	if g.busy.Load() == 0 || len(buf) == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.passed {
		if f.frame == &buf[0] {
			g.forgetBefore(f.seq + 1)
			return
		}
	}
}

// forgetBefore drops the passed heads read before the frame seq: frames
// are delivered in the order they are read, so one not delivered by now
// never will be (the link dropped it as a duplicate).
func (g *registry) forgetBefore(seq uint64) {
	k := 0
	for _, f := range g.passed {
		if f.seq >= seq {
			g.passed[k] = f
			k++
		}
	}
	g.passed = g.passed[:k]
	g.count()
}

// Region implements wire.Placement.
func (p *Posting) Region() (off, n, align int) { return len(p.head), p.Bytes, max(p.Align, 1) }

// Segs implements wire.Placement.
func (p *Posting) Segs() net.Buffers { return p.Dst }

// Finish implements wire.Placement.
func (p *Posting) Finish(frame []byte, ok bool) bool {
	g := p.reg
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cond.Broadcast()
	if p.state != postClaimed {
		return false // withdrawn while the frame arrived
	}
	p.kick = nil
	if !ok {
		p.state = postSpoiled
		return false
	}
	p.state, p.frame, p.landedLen = postLanded, &frame[0], len(frame)
	return true
}

// Spoil implements wire.Placement.
func (p *Posting) Spoil() {
	g := p.reg
	g.mu.Lock()
	if p.state == postLanded {
		p.state = postSpoiled
	}
	g.mu.Unlock()
}

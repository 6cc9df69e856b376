// Zero-copy messages across worlds. A chunk bound for a rank behind a
// connection (comm.ConnectPeer) whose runs are long is not packed: it is
// lent to the connection as a list of views into the caller's source
// slice, one per run of its window (wire.Loan), and the connection writes
// them with the frame header in one writev. On the other side the
// destination posts each such expected message before its first send —
// its exact frame head and the destination views of the pair's runs
// (comm.Post) — and a placing connection reads the payload with readv(2)
// straight into them. Either half keeps the frame's bytes, its CRC, its
// sequence number and its acknowledgement exactly as a packed chunk's.
//
// Lending holds the source until the connection gives the views back:
// over a session, when the peer acknowledges the frame (the frame asks
// for an immediate acknowledgement), so Run waits on the peer's session
// pump — never on the peer rank's Run — and a resume replays the same
// views. Fenced, a Run that gives up on a silent destination reclaims
// its lent frames instead (the session copies them and lets go).
//
// Short runs keep the packed path: below lendMinRun bytes per run, a
// writev or readv segment per run costs more than the pack or unpack copy
// it saves.

package redist

import (
	"net"
	"sync"

	"mxn/internal/comm"
	"mxn/internal/dad"
	"mxn/internal/obs"
	"mxn/internal/schedule"
	"mxn/internal/wire"
)

// lendMinRun is the average run length, in bytes, from which a remote
// chunk is lent instead of packed, and postMinRun the one from which a
// remote receive is posted instead of unpacked. They are measured, not
// guessed: BenchmarkRemoteLendVsPack (EXPERIMENTS.md B23) puts the
// crossover between 1 KiB runs, where the two paths are about even, and
// 4 KiB runs, where lending and placing win on both halves. They are
// variables only so that the benchmark and the tests can set each half on
// its own; a handle reads them when it is built.
var lendMinRun, postMinRun = 2 << 10, 2 << 10

// xferCodec is the remote payload tag of *xferMsg (codec.go's registry).
const xferCodec = 1

// mRemoteBytesLent counts payload bytes lent to a connection; the bytes
// placed on the other side are wire.bytes_placed.
var mRemoteBytesLent = obs.Default().Counter("redist.remote_bytes_lent")

// runBlockBytes is the average bytes per contiguous block of pair pp on
// one side (the source side when src), adjacent blocks merged: what a
// lent or placed message's segments hold on average.
func runBlockBytes(pp schedule.PairPlan, src bool, esz int) int {
	blocks := 0
	for _, r := range pp.Runs {
		stride := r.DstStride
		if src {
			stride = r.SrcStride
		}
		if r.Count == 1 || stride == r.N {
			blocks++
		} else {
			blocks += r.Count
		}
	}
	if blocks == 0 {
		return 0
	}
	return pp.Elems * esz / blocks
}

// appendRunSegs appends to segs the byte views of local covering the
// window [off, off+n) of pp's packed order, on the source side when src
// and the destination side otherwise, in packed order, with blocks that
// abut in local merged into one view.
func appendRunSegs[T Elem](segs [][]byte, pp schedule.PairPlan, local []T, src bool, off, n int) [][]byte {
	b, esz := bytesOf(local), elemSize[T]()
	lo, hi := 0, 0 // the open view, in elements
	for _, r := range pp.Runs {
		if n == 0 {
			break
		}
		if off >= r.Len() {
			off -= r.Len()
			continue
		}
		base, stride := r.DstOff, r.DstStride
		if src {
			base, stride = r.SrcOff, r.SrcStride
		}
		k, o := off/r.N, off%r.N
		off = 0
		for ; k < r.Count && n > 0; k++ {
			s, m := base+k*stride+o, min(r.N-o, n)
			o = 0
			if s != hi || hi == lo {
				if hi > lo {
					segs = append(segs, b[lo*esz:hi*esz])
				}
				lo, hi = s, s
			}
			hi += m
			n -= m
		}
	}
	if hi > lo {
		segs = append(segs, b[lo*esz:hi*esz])
	}
	return segs
}

// segPool recycles the view lists runs lend and post through, so that a
// handle built for one Run — what the deprecated one-shot wrappers build,
// and bulk_tcp runs through — allocates none once warm, as a persistent
// handle does not. Without it, bulk_tcp's peak_rss_MB reads about 139 MB
// instead of 121 (EXPERIMENTS.md B23): each step's lists are garbage the
// heap grows by before the collector runs.
var segPool struct {
	mu   sync.Mutex
	free [][][]byte
}

// getSegs returns an empty view list.
func getSegs() [][]byte {
	segPool.mu.Lock()
	defer segPool.mu.Unlock()
	if n := len(segPool.free); n > 0 {
		s := segPool.free[n-1]
		segPool.free = segPool.free[:n-1]
		return s
	}
	return nil
}

// putSegs recycles a view list once nothing reads its views, dropping
// them so the pool pins no caller memory.
func putSegs(s [][]byte) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	segPool.mu.Lock()
	if len(segPool.free) < maxFreeMsgs {
		segPool.free = append(segPool.free, s[:0])
	}
	segPool.mu.Unlock()
}

// arena returns the run's view list, drawn from the pool on first use.
func (t *Transfer[T]) arena() [][]byte {
	if !t.arenaTaken {
		t.segArena, t.arenaTaken = getSegs(), true
	}
	return t.segArena
}

// Segs implements wire.Loan: a remote lent chunk's views of its sender's
// source. Release, the other half, is comm.Releaser's.
func (m *xferMsg) Segs() net.Buffers { return m.segs }

// lendRemote makes the chunk [off, off+n) of send op i, bound for group
// rank group behind a connection, a remote lent chunk: views of the run's
// source per run of the window, booked on the run's rendezvous like an
// in-process lent chunk.
func (t *Transfer[T]) lendRemote(i, group, off, n int) *xferMsg {
	m := getMsg()
	m.epoch = t.epoch
	m.kind = kindOf[T]()
	m.elems = n
	m.loanBytes = n * elemSize[T]()
	k := len(t.arena())
	t.segArena = t.pl.sendSegs(i, off, n, t.segArena)
	m.segs = t.segArena[k:len(t.segArena):len(t.segArena)]
	if t.zc.wake == nil {
		t.zc.wake = make(chan struct{}, 1)
	}
	m.off = off
	m.lender = &t.zc
	m.state.Store(chunkLent)
	t.zc.left.Add(1)
	t.lent = append(t.lent, lentChunk{m: m, group: group})
	mZeroCopyHits.Inc()
	mElemsLent.Add(uint64(n))
	mRemoteBytesLent.Add(uint64(m.loanBytes))
	return m
}

// recvPost is one expected remote message's posting: the comm posting
// and the codec fields its head carries.
type recvPost struct {
	cp    comm.Posting
	epoch uint64
	kind  dad.ElemKind
	elems int
	on    bool // posted this run
}

// EncodePostBody implements comm.PostBody: the head encodeXferMsg writes
// for a data chunk of this posting's message.
func (p *recvPost) EncodePostBody(e *wire.Encoder) {
	putXferHead(e, p.epoch, p.kind, p.elems, false, nil)
	e.PutLoan(nil, p.cp.Bytes)
}

// postRecvs posts every expected remote message that qualifies: one chunk of
// at least wire.PlaceMin bytes, from a rank behind a placing connection,
// into destination runs of postMinRun bytes or more on average.
func (t *Transfer[T]) postRecvs() {
	for i := range t.posts {
		p := &t.posts[i]
		if p.cp.Body == nil {
			continue
		}
		rp := &t.recv[i]
		k := len(t.arena())
		t.segArena = t.pl.recvSegs(i, 0, rp.elems, t.segArena)
		p.cp.Dst = t.segArena[k:len(t.segArena):len(t.segArena)]
		p.epoch, p.elems = t.epoch, rp.elems
		p.on = t.c.Post(&p.cp)
	}
}

// withdraw ends the i'th expectation's posting, if it is posted: after
// it, no byte of that message lands in the destination.
func (t *Transfer[T]) withdraw(i int) {
	if i < len(t.posts) && t.posts[i].on {
		t.c.Withdraw(&t.posts[i].cp)
		t.posts[i].on = false
		t.posts[i].cp.Dst = nil
	}
}

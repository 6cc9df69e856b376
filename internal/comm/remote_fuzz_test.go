package comm_test

import (
	"testing"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	_ "mxn/internal/core" // remote payload tag 3: heartbeat pings
	"mxn/internal/dad"
	_ "mxn/internal/prmi"   // tag 4: PRMI messages
	_ "mxn/internal/redist" // tag 1: transfer messages
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// remoteFrame encodes a frame the way comm's remote path does: from and
// to ranks, tag and group identity, then the codec tag and what body
// writes.
func remoteFrame(codec byte, body func(e *wire.Encoder)) []byte {
	e := wire.NewEncoder(nil)
	e.PutUvarint(1) // from the bound rank
	e.PutUvarint(0) // to the local one
	e.PutInt64(0)
	e.PutUint64(1<<63 | 1)
	e.PutByte(codec)
	body(e)
	head, payload := e.Vector()
	return append(append([]byte(nil), head...), payload...)
}

// FuzzRemoteFrame feeds one arbitrary frame to a ConnectPeer binding with
// every payload codec of the module registered: transfer messages (tag 1),
// heartbeat pings (3) and PRMI messages (4), besides the generic codec.
// comm's deliver is the only code that decodes a frame off a connection
// into a mailbox. It must not panic: the frame is delivered, dropped, or
// fails the binding with an error. Once the world's ranks are killed, no
// pooled frame is left outstanding — a decoded message that keeps its
// frame hands it back when the dead rank's mailbox releases it.
func FuzzRemoteFrame(f *testing.F) {
	elems := make([]byte, 16)
	f.Add(remoteFrame(1, func(e *wire.Encoder) {
		e.PutUint64(1)
		e.PutByte(byte(dad.Float64))
		e.PutUvarint(2)
		e.PutBool(false)
		e.PutBytesRef(elems)
	}))
	f.Add(remoteFrame(3, func(e *wire.Encoder) {
		e.PutUvarint(1)
		e.PutUint64(7)
	}))
	f.Add(remoteFrame(4, func(e *wire.Encoder) {
		e.PutBytes([]byte{1, 2, 3})
		e.PutBytesRef(elems)
	}))
	f.Add(remoteFrame(0, func(e *wire.Encoder) {
		e.PutByte(1)
		e.PutInt(42)
	}))
	f.Add([]byte{1, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, frame []byte) {
		before := bufpool.FramesOutstanding()
		w := comm.NewWorld(2)
		a, b := transport.Pipe()
		rp := w.ConnectPeer(a, []int{1})
		if err := b.Send(frame); err != nil {
			t.Fatal(err)
		}
		b.Close() // the pipe hands up what it queued before the close
		<-rp.Done()
		w.Kill(0)
		deadline := time.Now().Add(time.Second)
		for bufpool.FramesOutstanding() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%d pooled frames outstanding after the ranks died (binding error: %v)",
					bufpool.FramesOutstanding()-before, rp.Err())
			}
			time.Sleep(time.Millisecond)
		}
	})
}

package core

// Remote payload codec for heartbeat pings, so a failure detector can
// probe ranks on the far side of a comm.ConnectPeer link: the ping
// crosses the wire under comm.CodecHeartbeat and the pong — a bare uint64
// sequence number — travels through comm's generic codec.

import (
	"fmt"

	"mxn/internal/comm"
	"mxn/internal/wire"
)

func init() {
	comm.RegisterRemoteDecoder(comm.CodecHeartbeat, func(d *wire.Decoder) (any, error) {
		var p heartbeatPing
		p.From = int(d.Uvarint())
		p.Seq = d.Uint64()
		if d.Err() != nil {
			return nil, fmt.Errorf("core: corrupt remote heartbeat ping: %w", d.Err())
		}
		return p, nil
	})
}

// RemoteTag implements comm.Remote.
func (heartbeatPing) RemoteTag() byte { return comm.CodecHeartbeat }

// PutRemote implements comm.Remote.
func (p heartbeatPing) PutRemote(e *wire.Encoder) {
	e.PutUvarint(uint64(p.From))
	e.PutUint64(p.Seq)
}

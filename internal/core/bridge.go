// Package core implements the paper's primary contribution: the
// generalized CCA M×N parallel data redistribution component
// (Section 4.1), unifying the PAWS point-to-point coupling model and the
// CUMULVS persistent-channel model behind one interface.
//
// Parallel components register distributed data fields by descriptor
// (a DAD handle plus an access mode); connections between two registered
// fields — one-shot or persistent — are negotiated at run time and can be
// initiated by the source side, the destination side, or a third party.
// Each transfer decomposes into independent pairwise messages driven by
// matched DataReady calls on the two cohorts: no additional barriers are
// imposed on either side.
//
// The pair of M×N component instances serving one connection communicate
// out-of-band through a Bridge (Figure 3 of the paper). Two bridges are
// provided: an in-memory pair for co-located framework instances, and a
// network bridge over internal/transport for distributed ones.
package core

import (
	"fmt"
	"sync"

	"mxn/internal/bufpool"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// Bridge is the out-of-band channel between the two M×N component
// instances of a connection. Data fragments flow on named channels (the
// hub names one channel per connection and rank pair, so matching is by
// content, not arrival order); control messages form a single ordered
// stream used for connection negotiation.
type Bridge interface {
	// SendData delivers one fragment on a channel.
	SendData(channel string, seq uint64, data []float64) error
	// RecvData blocks until fragment (channel, seq) arrives.
	RecvData(channel string, seq uint64) ([]float64, error)
	// RecvLatest blocks until at least one fragment for channel is
	// available, then returns the newest and discards older ones. It
	// implements the free-running synchronization option, where a slow
	// consumer samples the latest frame instead of draining every epoch.
	RecvLatest(channel string) (seq uint64, data []float64, err error)
	// SendControl appends one message to the control stream.
	SendControl(msg []byte) error
	// RecvControl blocks for the next control message.
	RecvControl() ([]byte, error)
}

// dataKey matches fragments.
type dataKey struct {
	channel string
	seq     uint64
}

// matcher is a concurrent store of fragments with blocking matched
// retrieval, shared by both bridge implementations.
type matcher struct {
	mu   sync.Mutex
	cond *sync.Cond
	data map[dataKey][]float64
	err  error
}

func newMatcher() *matcher {
	m := &matcher{data: map[dataKey][]float64{}}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *matcher) put(k dataKey, v []float64) {
	m.mu.Lock()
	m.data[k] = v
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *matcher) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	m.mu.Unlock()
	m.cond.Broadcast()
}

func (m *matcher) take(k dataKey) ([]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if v, ok := m.data[k]; ok {
			delete(m.data, k)
			return v, nil
		}
		if m.err != nil {
			return nil, m.err
		}
		m.cond.Wait()
	}
}

func (m *matcher) takeLatest(channel string) (uint64, []float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		best := dataKey{}
		found := false
		for k := range m.data {
			if k.channel == channel && (!found || k.seq > best.seq) {
				best = k
				found = true
			}
		}
		if found {
			v := m.data[best]
			for k := range m.data {
				if k.channel == channel && k.seq <= best.seq {
					delete(m.data, k)
				}
			}
			return best.seq, v, nil
		}
		if m.err != nil {
			return 0, nil, m.err
		}
		m.cond.Wait()
	}
}

// memBridge is one side of an in-memory bridge pair.
type memBridge struct {
	in     *matcher // fragments addressed to this side
	out    *matcher // the peer's matcher
	ctlIn  chan []byte
	ctlOut chan []byte
}

// BridgePair returns the two ends of an in-memory bridge for co-located
// framework instances: the Figure 3 deployment, where paired M×N
// components share a process but belong to different frameworks.
func BridgePair() (a, b Bridge) {
	ma, mb := newMatcher(), newMatcher()
	ab := make(chan []byte, 256)
	ba := make(chan []byte, 256)
	return &memBridge{in: ma, out: mb, ctlIn: ba, ctlOut: ab},
		&memBridge{in: mb, out: ma, ctlIn: ab, ctlOut: ba}
}

func (b *memBridge) SendData(channel string, seq uint64, data []float64) error {
	cp := make([]float64, len(data))
	copy(cp, data)
	b.out.put(dataKey{channel: channel, seq: seq}, cp)
	return nil
}

func (b *memBridge) RecvData(channel string, seq uint64) ([]float64, error) {
	return b.in.take(dataKey{channel: channel, seq: seq})
}

func (b *memBridge) RecvLatest(channel string) (uint64, []float64, error) {
	return b.in.takeLatest(channel)
}

func (b *memBridge) SendControl(msg []byte) error {
	cp := make([]byte, len(msg))
	copy(cp, msg)
	b.ctlOut <- cp
	return nil
}

func (b *memBridge) RecvControl() ([]byte, error) {
	return <-b.ctlIn, nil
}

// netBridge runs the bridge over one transport connection, with a pump
// goroutine demultiplexing data and control messages into the matcher.
// Pairwise transfers remain logically independent: matching is by channel
// and sequence, not arrival order.
type netBridge struct {
	conn transport.Conn
	in   *matcher
	ctl  chan []byte
	once sync.Once
	wmu  sync.Mutex
}

// NewNetBridge wraps a transport connection end as a Bridge. Both sides
// of the connection must wrap their respective ends.
func NewNetBridge(conn transport.Conn) Bridge {
	return &netBridge{conn: conn, in: newMatcher(), ctl: make(chan []byte, 256)}
}

const (
	netData byte = 1
	netCtl  byte = 2
)

func (b *netBridge) pump() {
	b.once.Do(func() {
		go func() {
			// fail poisons both the data matcher and the control stream so
			// every pending and future read observes the error.
			fail := func(err error) {
				b.in.fail(err)
				close(b.ctl)
			}
			for {
				msg, err := b.conn.Recv()
				if err != nil {
					fail(fmt.Errorf("core: bridge receive: %w", err))
					return
				}
				if err := b.deliver(msg); err != nil {
					fail(err)
					return
				}
			}
		}()
	})
}

// deliver decodes one received frame — data into the matcher, control
// onto the control stream — and returns the frame to the pool: both
// decoders copy what they keep.
func (b *netBridge) deliver(msg []byte) error {
	defer bufpool.PutFrame(msg)
	d := wire.NewDecoder(msg)
	switch d.Byte() {
	case netData:
		channel := d.String()
		seq := d.Uint64()
		data := d.Float64s()
		if d.Err() != nil {
			return fmt.Errorf("core: corrupt bridge data: %w", d.Err())
		}
		b.in.put(dataKey{channel: channel, seq: seq}, data)
	case netCtl:
		payload := d.Bytes()
		if d.Err() != nil {
			return fmt.Errorf("core: corrupt bridge control: %w", d.Err())
		}
		b.ctl <- payload
	default:
		return fmt.Errorf("core: unknown bridge message kind")
	}
	return nil
}

func (b *netBridge) SendData(channel string, seq uint64, data []float64) error {
	e := wire.NewEncoder(nil)
	e.PutByte(netData)
	e.PutString(channel)
	e.PutUint64(seq)
	e.PutFloat64s(data)
	b.wmu.Lock()
	defer b.wmu.Unlock()
	return b.conn.Send(e.Bytes())
}

func (b *netBridge) RecvData(channel string, seq uint64) ([]float64, error) {
	b.pump()
	return b.in.take(dataKey{channel: channel, seq: seq})
}

func (b *netBridge) RecvLatest(channel string) (uint64, []float64, error) {
	b.pump()
	return b.in.takeLatest(channel)
}

func (b *netBridge) SendControl(msg []byte) error {
	e := wire.NewEncoder(nil)
	e.PutByte(netCtl)
	e.PutBytes(msg)
	b.wmu.Lock()
	defer b.wmu.Unlock()
	return b.conn.Send(e.Bytes())
}

func (b *netBridge) RecvControl() ([]byte, error) {
	b.pump()
	msg, ok := <-b.ctl
	if !ok {
		return nil, fmt.Errorf("core: bridge closed")
	}
	return msg, nil
}

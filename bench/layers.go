package main

import (
	"bytes"
	"io"
	"net"
	"sync"
	"time"

	"mxn/internal/bufpool"
	"mxn/internal/comm"
	"mxn/internal/core"
	"mxn/internal/dad"
	"mxn/internal/prmi"
	"mxn/internal/schedule"
	"mxn/internal/session"
	"mxn/internal/sidl"
	"mxn/internal/transport"
	"mxn/internal/wire"
)

// Per-layer measurements: each times calls into one module's public
// functions, from here, with the running workload's own sizes — the
// forward plan's templates, its message size and its payload bytes. They
// say what a layer costs in isolation; the step's spans say what the
// layers cost together.

// meter runs the measurements of one traced pass.
type meter struct {
	tr *tracer
	d  time.Duration // time given to one measurement
	m  map[string]float64

	mu  sync.Mutex
	err error // first error of any measurement or helper goroutine
}

// time calls op in batches for about mt.d and returns the median time of
// one call in nanoseconds, under a span named name.
func (mt *meter) time(name string, batch int, op func()) float64 {
	id := mt.tr.begin(name, -1, -1)
	defer mt.tr.end(id)
	op()
	var per []float64
	for start := time.Now(); time.Since(start) < mt.d || len(per) < 5; {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			op()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// us and ns record a timed measurement under its metric name.
func (mt *meter) us(name string, batch int, op func()) {
	mt.m[name] = mt.time(name, batch, op) / 1e3
}

func (mt *meter) ns(name string, batch int, op func()) {
	mt.m[name] = mt.time(name, batch, op)
}

// fail records err if it is the first and reports whether any measurement
// has failed so far.
func (mt *meter) fail(err error) bool {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	if err != nil && mt.err == nil {
		mt.err = err
	}
	return mt.err != nil
}

func (mt *meter) firstErr() error {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.err
}

func axesOf(t *dad.Template) []dad.AxisDist {
	axes := make([]dad.AxisDist, t.NumAxes())
	for a := range axes {
		axes[a] = t.Axis(a)
	}
	return axes
}

// measureLayers fills mt.m with every per-layer timing that does not come
// from the step itself.
func measureLayers(mt *meter, inst *instance) error {
	sh := inst.shape()
	msg := make([]byte, sh.msgBytes())
	for i := range msg {
		msg[i] = byte(i)
	}

	// dad: describing the two layouts, and re-deriving one a rank wider.
	mt.us("dad.template_us", 1, func() {
		_, err := dad.NewTemplate(inst.srcT.Dims(), axesOf(inst.srcT))
		mt.fail(err)
		_, err = dad.NewTemplate(inst.dstT.Dims(), axesOf(inst.dstT))
		mt.fail(err)
	})
	mt.us("dad.reblock_us", 1, func() {
		_, err := dad.Reblock(inst.srcT, inst.srcT.NumProcs()+1)
		mt.fail(err)
	})

	// schedule: planning cold, planning through a warm cache, and moving
	// one pairwise message between a local array and its packed form.
	mt.us("schedule.build_us", 1, func() {
		_, err := schedule.Build(inst.srcT, inst.dstT)
		mt.fail(err)
	})
	mt.us("schedule.remap_us", 1, func() {
		_, err := schedule.Remap(inst.srcT, inst.dstT)
		mt.fail(err)
	})
	cache := schedule.NewCache()
	mt.ns("schedule.cache_get_ns", 1000, func() {
		_, err := cache.Get(inst.srcT, inst.dstT)
		mt.fail(err)
	})
	mt.m["schedule.pairs"] = float64(len(inst.fwd.Pairs))
	mt.m["schedule.elems_per_msg"] = float64(inst.fwd.TotalElems()) / float64(len(inst.fwd.Pairs))
	if inst.elemBytes == 4 {
		packUnpack[float32](mt, inst)
	} else {
		packUnpack[float64](mt, inst)
	}
	mt.us("redist.local_us", 1, inst.local)

	// bufpool: one get and put of a message-sized buffer.
	mt.ns("bufpool.getput_ns", 1000, func() { bufpool.Put(bufpool.Get(len(msg))) })

	// wire: encoding a message the copying way, framing it with its
	// CRC-32C, and reading the frame back.
	mt.us("wire.encode_us", 1, func() {
		e := wire.NewEncoder(nil)
		e.PutUvarint(1)
		e.PutBytes(msg)
	})
	segs := net.Buffers{msg[:8], msg[8:]}
	mt.us("wire.frame_write_us", 1, func() { mt.fail(wire.WriteFrameV(io.Discard, segs)) })
	mt.m["wire.crc_MBps"] = float64(len(msg)) / mt.m["wire.frame_write_us"]
	var framed bytes.Buffer
	mt.fail(wire.WriteFrame(&framed, msg))
	rd := bytes.NewReader(framed.Bytes())
	mt.us("wire.frame_read_us", 1, func() {
		rd.Reset(framed.Bytes())
		_, err := wire.ReadFrame(rd)
		mt.fail(err)
	})

	// comm: a message-sized ping-pong between two ranks of one world, and
	// between two worlds joined the way the TCP workloads are.
	local := comm.NewWorld(2).Comms()
	mt.pingPong("comm.sendrecv_us", local[0], local[1], 0, 1, msg)
	fab, err := dialFabric()
	if mt.fail(err) {
		return err
	}
	mt.pingPong("comm.remote_sendrecv_us", fab.comms[0], fab.comms[nSide], 0, nSide, msg)
	fab.close()

	// transport and session: a message-sized echo over a raw transport
	// connection, the in-memory pipe, and a session on top of TCP.
	tl, err := transport.Listen("tcp", "127.0.0.1:0")
	if mt.fail(err) {
		return err
	}
	mt.connPingPong("transport.tcp_pingpong_us", tl, func() (transport.Conn, error) { return transport.Dial("tcp", tl.Addr()) }, msg)
	a, b := transport.Pipe()
	mt.echo("transport.pipe_pingpong_us", a, b, msg)
	sl, err := session.Listen("tcp", "127.0.0.1:0", session.Config{})
	if mt.fail(err) {
		return err
	}
	dialSession := func() (transport.Conn, error) { return session.Dial("tcp", sl.Addr(), session.Config{}) }
	mt.us("session.dial_us", 1, func() {
		acc := make(chan transport.Conn, 1)
		go func() {
			c, err := sl.Accept()
			mt.fail(err)
			acc <- c
		}()
		c, err := dialSession()
		if s := <-acc; s != nil {
			s.Close()
		}
		if !mt.fail(err) {
			c.Close()
		}
	})
	mt.connPingPong("session.pingpong_us", sl, dialSession, msg)
	mt.m["session.over_transport_x"] = mt.m["session.pingpong_us"] / mt.m["transport.tcp_pingpong_us"]

	// core: the two-phase resize protocol with no data to move.
	mem := core.NewMembership(2)
	mt.us("core.resize_protocol_us", 1, func() {
		for _, width := range [2]int{3, 2} {
			rz, err := mem.ProposeResize(width)
			if !mt.fail(err) {
				mt.fail(rz.Commit())
			}
		}
	})

	mt.prmiCalls()

	// floor: both denominators at this workload's shape, and the memcpy
	// rate they embed. The arrays are cache-resident (the guest reports
	// an L3 far larger than any of them), so this is not a DRAM bandwidth.
	sf, err := newSockFloor(sh)
	if mt.fail(err) {
		return err
	}
	mt.us("floor.sock_us", 1, func() { mt.fail(sf.op()) })
	sf.close()
	mf := newMemFloor(sh)
	mt.us("floor.mem_us", 1, func() { mt.fail(mf.op()) })
	mf.close()
	from, to := make([]byte, sh.bytes), make([]byte, sh.bytes)
	mt.m["floor.memcpy_MBps"] = float64(sh.bytes) / (mt.time("floor.memcpy", 1, func() { copy(to, from) }) / 1e3)
	return mt.firstErr()
}

// packUnpack times schedule.PackSlice and UnpackSlice on the forward
// plan's first pairwise message.
func packUnpack[T float32 | float64](mt *meter, inst *instance) {
	p := inst.fwd.Pairs[0]
	src := make([]T, inst.srcT.LocalCount(p.SrcRank))
	dst := make([]T, inst.dstT.LocalCount(p.DstRank))
	packed := make([]T, p.Elems)
	mt.us("schedule.pack_us", 1, func() { schedule.PackSlice(p, src, packed) })
	mt.us("schedule.unpack_us", 1, func() { schedule.UnpackSlice(p, dst, packed) })
	mt.m["schedule.pack_MBps"] = float64(p.Elems*inst.elemBytes) / mt.m["schedule.pack_us"]
}

// pingPong times a round trip of msg between two communicator handles;
// the far rank echoes until it is sent an empty message.
func (mt *meter) pingPong(name string, near, far *comm.Comm, nearRank, farRank int, msg []byte) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			p, _ := far.Recv(nearRank, 0)
			if b, ok := p.([]byte); !ok || len(b) == 0 {
				return
			}
			far.Send(nearRank, 0, p)
		}
	}()
	mt.us(name, 1, func() {
		near.Send(farRank, 0, msg)
		near.Recv(farRank, 0)
	})
	near.Send(farRank, 0, []byte{})
	<-done
}

// connPingPong dials one connection to lst, times echoes over it and
// closes both ends and the listener.
func (mt *meter) connPingPong(name string, lst transport.Listener, dial func() (transport.Conn, error), msg []byte) {
	defer lst.Close()
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := lst.Accept()
		mt.fail(err)
		acc <- c
	}()
	c, err := dial()
	s := <-acc
	if mt.fail(err) || s == nil {
		return
	}
	mt.echo(name, c, s, msg)
}

// echo times Send/Recv round trips of msg from near to an echoing far
// end, then closes both.
func (mt *meter) echo(name string, near, far transport.Conn, msg []byte) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := far.Recv()
			if err != nil || far.Send(m) != nil {
				return
			}
		}
	}()
	mt.us(name, 1, func() {
		mt.fail(near.Send(msg))
		_, err := near.Recv()
		mt.fail(err)
	})
	near.Close()
	far.Close()
	<-done
}

const microIDL = `package bench; interface Micro {
	independent double one(in double x);
	collective double all(in double x);
}`

// prmiCalls times the three kinds of PRMI call over an in-process
// CommLink: one-to-one, collective with simple arguments only, and the
// prmi_tcp workload's own parallel call.
func (mt *meter) prmiCalls() {
	pkg, err := sidl.Parse(microIDL)
	if mt.fail(err) {
		return
	}
	iface, _ := pkg.Interface("Micro")
	w := comm.NewWorld(2 * nSide)
	cs, cohort := w.Comms(), w.Group(allRanks[:nSide])
	served := make(chan error, nSide)
	for j := 0; j < nSide; j++ {
		ep := prmi.NewEndpoint(iface, prmi.NewCommLink(cs[nSide+j], 0, 0), j, nSide, nSide)
		double := func(in *prmi.Incoming, out *prmi.Outgoing) error {
			out.Return = in.Simple["x"].(float64) * 2
			return nil
		}
		mt.fail(ep.Handle("one", double))
		mt.fail(ep.Handle("all", double))
		go func() { served <- ep.Serve() }()
	}
	ports := make([]*prmi.CallerPort, nSide)
	for i := range ports {
		ports[i] = prmi.NewCallerPort(iface, prmi.NewCommLink(cs[i], nSide, 0), i, nSide, prmi.Eager)
	}
	mt.us("prmi.call_independent_us", 1, func() {
		_, err := ports[0].CallIndependent(0, "one", prmi.Simple("x", 1.0))
		mt.fail(err)
	})
	// The second caller of the collective call runs beside the timed one.
	calls := make(chan bool)
	go func() {
		for range calls {
			_, err := ports[1].CallCollective("all", prmi.FullParticipation(cohort[1]), prmi.Simple("x", 1.0))
			mt.fail(err)
			calls <- true
		}
	}()
	mt.us("prmi.call_collective_us", 1, func() {
		calls <- true
		_, err := ports[0].CallCollective("all", prmi.FullParticipation(cohort[0]), prmi.Simple("x", 1.0))
		mt.fail(err)
		<-calls
	})
	close(calls)
	for _, p := range ports {
		mt.fail(p.Close())
	}
	for j := 0; j < nSide; j++ {
		mt.fail(<-served)
	}

	pw, _ := findWorkload("prmi_tcp")
	inst, err := pw.build(true, 1, nil)
	if mt.fail(err) {
		return
	}
	sent := counter("comm.msgs_sent")
	before := sent.Value()
	n := 0
	id := mt.tr.begin("prmi.call_parallel_inproc_us", -1, -1)
	var times []float64
	for start := time.Now(); time.Since(start) < mt.d; n += 2 {
		if mt.fail(inst.rk.run(2, &times, nil)) {
			break
		}
	}
	mt.tr.end(id)
	mt.m["prmi.call_parallel_inproc_us"] = median(times) / 1e3
	mt.m["prmi.msgs_per_call"] = float64(sent.Value()-before) / float64(n)
	mt.fail(inst.verify())
	mt.fail(inst.close())
}

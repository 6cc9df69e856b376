package main

import (
	"fmt"
	"io"
	"net"
)

// The floor is the denominator of step_x_floor. It moves the same bytes in
// the same number of messages as one workload step using nothing but the
// standard library: this file imports no product code, so a product change
// cannot move it.

// shape is what a floor needs to know about a step: how many pairwise
// messages travel in each direction and how many payload bytes they carry
// in total per direction.
type shape struct {
	msgs  int // messages per direction
	bytes int // payload bytes per direction
}

func (s shape) msgBytes() int { return (s.bytes + s.msgs - 1) / s.msgs }

// sockChunk caps one ping-pong chunk so a chunk never fills a loopback
// socket buffer: an unchunked multi-megabyte echo stalls on buffer space
// and was less repeatable than the workload it was meant to normalise.
const sockChunk = 64 << 10

// sockFloor echoes one direction's payload over a raw loopback TCP
// connection in ping-pong chunks, with one memcpy of the payload on each
// side: the cost of moving the step's bytes there and back through the
// kernel when nothing is packed, framed, checksummed, acknowledged or
// scheduled. Every buffer is as large as the payload and is walked chunk
// by chunk, so the floor's memory footprint — and with it what a busy
// last-level cache does to it — is that of the step it normalises.
//
// It is the denominator of every workload, the in-process one too. What a
// denominator must do is slow down when the step does, and on a shared host
// what slows a step is mostly the cost of kernel entries and goroutine
// switches, which a socket echo is made of and a memcpy is not: against the
// channel-and-memcpy floor below, resize_inproc's ratio spread 7 % between
// runs; against this one, 1 % (NOISE.md).
type sockFloor struct {
	conn             net.Conn
	src, stage, back []byte // payload, what is written, what comes back
	chunk            int
	served           chan error
}

func newSockFloor(s shape) (*sockFloor, error) {
	chunk := s.msgBytes()
	if chunk > sockChunk {
		chunk = sockChunk
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("floor.sock listen: %w", err)
	}
	defer ln.Close()
	f := &sockFloor{
		src: make([]byte, s.bytes), stage: make([]byte, s.bytes), back: make([]byte, s.bytes),
		chunk:  chunk,
		served: make(chan error, 1),
	}
	for i := range f.src {
		f.src[i] = byte(i)
	}
	go func() {
		c, err := ln.Accept()
		if err != nil {
			f.served <- err
			return
		}
		defer c.Close()
		in, out := make([]byte, s.bytes), make([]byte, s.bytes)
		for {
			for off := 0; off < len(in); off += chunk {
				end := min(off+chunk, len(in))
				if _, err := io.ReadFull(c, in[off:end]); err != nil {
					if err == io.EOF && off == 0 {
						err = nil
					}
					f.served <- err
					return
				}
				copy(out[off:end], in[off:end])
				if _, err := c.Write(out[off:end]); err != nil {
					f.served <- err
					return
				}
			}
		}
	}()
	if f.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, fmt.Errorf("floor.sock dial: %w", err)
	}
	return f, nil
}

func (f *sockFloor) op() error {
	for off := 0; off < len(f.src); off += f.chunk {
		end := min(off+f.chunk, len(f.src))
		copy(f.stage[off:end], f.src[off:end])
		if _, err := f.conn.Write(f.stage[off:end]); err != nil {
			return err
		}
		if _, err := io.ReadFull(f.conn, f.back[off:end]); err != nil {
			return err
		}
	}
	return nil
}

func (f *sockFloor) close() {
	f.conn.Close()
	<-f.served
}

// memFloor hands the step's messages between two goroutines over
// unbuffered channels, with one memcpy into and one out of a staging
// buffer per message: the cost of an in-process transfer when nothing is
// planned, fenced, chunked or acknowledged. It is reported per layer
// (floor.mem_us) and normalises nothing.
type memFloor struct {
	src, stage, dst []byte
	msgs            int
	there, back     chan []byte
}

func newMemFloor(s shape) *memFloor {
	n := s.msgBytes()
	f := &memFloor{
		src: make([]byte, n), stage: make([]byte, n), dst: make([]byte, n),
		msgs:  2 * s.msgs, // both directions of the round trip
		there: make(chan []byte), back: make(chan []byte),
	}
	go func() {
		for m := range f.there {
			copy(f.dst, m)
			f.back <- m
		}
		close(f.back)
	}()
	return f
}

func (f *memFloor) op() error {
	for i := 0; i < f.msgs; i++ {
		copy(f.stage, f.src)
		f.there <- f.stage
		<-f.back
	}
	return nil
}

func (f *memFloor) close() {
	close(f.there)
	<-f.back
}

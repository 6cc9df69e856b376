// Package pooltest is the shared leak oracle of the packages that move
// pooled memory: a TestMain helper that fails a package's test run when
// any buffer or frame drawn from bufpool was never returned. Every Recv
// on a connection hands up a pooled frame, so a receive path that forgets
// its PutFrame fails the tests of the package it lives in.
//
// Use it as the whole of a package's TestMain:
//
//	func TestMain(m *testing.M) { pooltest.Main(m) }
package pooltest

import (
	"fmt"
	"os"
	"testing"
	"time"

	"mxn/internal/bufpool"
)

// settle bounds the wait for returns that happen asynchronously after the
// last test: a session frees a sent payload when the peer's cumulative
// acknowledgement arrives, and connection pumps hand back frames as they
// wind down.
const settle = 10 * time.Second

// Main runs the package's tests and exits with their status, or with 1
// when they passed but bufpool.Outstanding or bufpool.FramesOutstanding
// is still non-zero after the settle wait.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Balanced(settle); err != nil {
			fmt.Fprintln(os.Stderr, "pooltest:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Balanced waits up to d for every pooled buffer and frame to be back and
// reports the shortfall if they are not.
func Balanced(d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		bufs, frames := bufpool.Outstanding(), bufpool.FramesOutstanding()
		if bufs == 0 && frames == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d pooled buffers and %d frames outstanding after the tests", bufs, frames)
		}
		time.Sleep(time.Millisecond)
	}
}

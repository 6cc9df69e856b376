//go:build linux

package wire

import (
	"io"
	"syscall"
	"unsafe"
)

// rawVec reads a socket with readv(2) through its syscall.RawConn, so a
// read blocks in the runtime's poller and honours the conn's deadlines.
type rawVec struct {
	rc    syscall.RawConn
	iov   []syscall.Iovec
	n     int
	errno syscall.Errno
	fn    func(fd uintptr) bool // v.do, bound once
}

// maxIov is the most segments one readv takes (Linux's UIO_MAXIOV).
const maxIov = 1024

func newVecReader(r io.Reader) vecReader {
	if sc, ok := r.(syscall.Conn); ok {
		if rc, err := sc.SyscallConn(); err == nil {
			v := &rawVec{rc: rc}
			v.fn = v.do
			return v
		}
	}
	return plainVec{r}
}

func (v *rawVec) readv(bufs [][]byte) (int, error) {
	v.iov = v.iov[:0]
	for _, b := range bufs {
		if len(v.iov) == maxIov {
			break
		}
		if len(b) > 0 {
			iov := syscall.Iovec{Base: &b[0]}
			iov.SetLen(len(b))
			v.iov = append(v.iov, iov)
		}
	}
	v.n, v.errno = 0, 0
	err := v.rc.Read(v.fn)
	clear(v.iov)
	switch {
	case err != nil:
		return 0, err
	case v.errno != 0:
		return 0, v.errno
	case v.n == 0:
		return 0, io.EOF
	}
	return v.n, nil
}

// do is one readv attempt; false asks the poller to wait for data.
func (v *rawVec) do(fd uintptr) bool {
	for {
		r, _, e := syscall.Syscall(syscall.SYS_READV, fd, uintptr(unsafe.Pointer(&v.iov[0])), uintptr(len(v.iov)))
		switch e {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		v.n, v.errno = int(r), e
		return true
	}
}

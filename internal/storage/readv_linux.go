package storage

import (
	"math/bits"
	"os"
	"syscall"
	"unsafe"
)

// vecFile is what a vectored read needs of an open heap file: its
// RawConn, fetched once. RawConn.Control holds the descriptor reference
// for the length of the call, as ReadAt does, so a read racing
// Store.Crash's Close fails cleanly (File.Fd would hand out a bare
// number that Close can invalidate under the syscall).
type vecFile struct {
	rc syscall.RawConn
}

func newVecFile(f *os.File) (vecFile, error) {
	rc, err := f.SyscallConn()
	return vecFile{rc}, err
}

// readScratch is one stripe's state for a vectored read. It lives in the
// stripe, and the system call is a method bound once rather than a
// closure, so that a read allocates nothing.
type readScratch struct {
	iov  [runPages]syscall.Iovec
	call func(fd uintptr) // sc.preadv
	cnt  int
	off  int64
	n    int
	err  error
}

// readv reads into bufs, in order, from offset off with one preadv, and
// returns the bytes read: fewer than asked at end of file.
func (v vecFile) readv(bufs [][]byte, off int64, sc *readScratch) (int, error) {
	if sc.call == nil {
		sc.call = sc.preadv
	}
	for i, b := range bufs {
		sc.iov[i].Base = &b[0]
		sc.iov[i].SetLen(len(b))
	}
	sc.cnt, sc.off = len(bufs), off
	if err := v.rc.Control(sc.call); err != nil {
		return 0, err
	}
	return sc.n, sc.err
}

func (sc *readScratch) preadv(fd uintptr) {
	// The offset travels as two longs; on a 64-bit kernel the first holds
	// all of it.
	lo, hi := uintptr(sc.off), uintptr(uint64(sc.off)>>(bits.UintSize-1)>>1)
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_PREADV, fd,
			uintptr(unsafe.Pointer(&sc.iov[0])), uintptr(sc.cnt), lo, hi, 0)
		if errno == syscall.EINTR {
			continue
		}
		sc.n, sc.err = int(n), nil
		if errno != 0 {
			sc.n, sc.err = 0, errno
		}
		return
	}
}

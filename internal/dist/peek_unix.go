//go:build unix

package dist

import (
	"errors"
	"net"
	"syscall"
)

// whole reports whether conn is still whole as far as can be told without
// blocking: the peer has neither closed nor reset it, nor sent anything
// unasked. It peeks at the socket, so nothing is consumed.
func whole(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	idle := false
	var b [1]byte
	err = rc.Read(func(fd uintptr) bool {
		_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		idle = errors.Is(err, syscall.EAGAIN)
		return true // never wait for readability
	})
	return err == nil && idle
}

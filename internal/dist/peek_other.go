//go:build !unix

package dist

import "net"

// whole reports a connection whole where the socket cannot be peeked at:
// a parked session whose worker died is then lent, and its first script
// fails over to recovery like any other dead worker.
func whole(net.Conn) bool { return true }

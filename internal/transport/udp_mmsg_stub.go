//go:build !linux || !(amd64 || arm64)

package transport

// Platforms without the raw sendmmsg/recvmmsg plumbing: batch calls
// always take the portable loop, and receive has no GRO, so every
// message is one frame.

const mmsgAvailable = false

type mmsgState struct{}

func (u *UDPTransport) enableGRO() {}

func (u *UDPTransport) recvControl(i int) []byte { return nil }

func segmentSize(n int, control []byte, flags int) (seg int, ok bool) { return n, true }

func (u *UDPTransport) sendBatchMmsg(dgs []Datagram) (n int, err error, handled bool) {
	return 0, nil, false
}

func (u *UDPTransport) recvBatchMmsg(buf []Datagram) (n int, err error, handled bool) {
	return 0, nil, false
}

//go:build !linux || !(amd64 || arm64)

package transport

// Platforms without the raw sendmmsg/recvmmsg plumbing: batch calls
// always take the portable loop.

const mmsgAvailable = false

type mmsgState struct{}

func (u *UDPTransport) sendBatchMmsg(dgs []Datagram) (n int, err error, handled bool) {
	return 0, nil, false
}

func (u *UDPTransport) recvBatchMmsg(buf []Datagram) (n int, err error, handled bool) {
	return 0, nil, false
}

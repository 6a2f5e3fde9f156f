package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"

	"fbs/internal/principal"
)

// UDPTransport runs the FBS datagram abstraction over real UDP sockets,
// so two processes (or two machines) can speak FBS to each other. Each
// datagram is framed as the length-prefixed source and destination
// principal addresses followed by the payload. The framing predates
// tracing and is unchanged by it: Datagram.Trace is not serialized, so
// traces over UDP cover the sending process only.
type UDPTransport struct {
	local principal.Address
	conn  *net.UDPConn

	// peers holds unmapped addresses (an IPv4 peer is stored as IPv4
	// even when a dual-stack socket reports it IPv4-mapped), so the
	// learn step can tell "same origin" by comparing values.
	mu    sync.RWMutex
	learn bool
	peers map[principal.Address]netip.AddrPort

	batchState
}

// NewUDPTransport binds a UDP socket on listenAddr (e.g. "127.0.0.1:7001")
// for the given principal.
func NewUDPTransport(local principal.Address, listenAddr string) (*UDPTransport, error) {
	ua, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", listenAddr, err)
	}
	u := &UDPTransport{
		local: local,
		conn:  conn,
		peers: make(map[principal.Address]netip.AddrPort),
	}
	u.enableGRO()
	return u, nil
}

// LocalAddr returns the bound UDP address (useful with port 0).
func (u *UDPTransport) LocalAddr() *net.UDPAddr {
	return u.conn.LocalAddr().(*net.UDPAddr)
}

// AddPeer maps a principal address to the UDP address where it listens.
func (u *UDPTransport) AddPeer(peer principal.Address, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("transport: resolving peer %q: %w", addr, err)
	}
	u.mu.Lock()
	u.peers[peer] = unmap(ua.AddrPort())
	u.mu.Unlock()
	return nil
}

// unmap turns an IPv4-mapped IPv6 address into the IPv4 address it
// stands for and leaves every other address alone.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// SetLearnPeers makes every receive call — Receive and both ReceiveBatch
// paths — record each frame's source principal → UDP origin mapping:
// the reply-to-observed-source behaviour a server needs to answer
// clients it has no static peer table for (a gateway cannot enumerate
// its clients in advance). A later frame from the same principal at a
// new origin moves the mapping, so a client that re-binds keeps
// working; static AddPeer entries are overwritten the same way. A frame
// that confirms the mapping already held costs a read lock and nothing
// else.
func (u *UDPTransport) SetLearnPeers(on bool) {
	u.mu.Lock()
	u.learn = on
	u.mu.Unlock()
}

// learnPeer is the learn step every receive path shares: origin is
// where src's frame came from, already unmapped. The write lock is
// taken only when the mapping actually changes.
func (u *UDPTransport) learnPeer(src principal.Address, origin netip.AddrPort) {
	u.mu.RLock()
	settled := !u.learn || u.peers[src] == origin
	u.mu.RUnlock()
	if settled {
		return
	}
	u.mu.Lock()
	u.peers[src] = origin
	u.mu.Unlock()
}

// peerOf resolves a destination principal to its UDP address.
func (u *UDPTransport) peerOf(dst principal.Address) (netip.AddrPort, error) {
	u.mu.RLock()
	peer, ok := u.peers[dst]
	u.mu.RUnlock()
	if !ok {
		return netip.AddrPort{}, fmt.Errorf("transport: no UDP mapping for principal %q", dst)
	}
	return peer, nil
}

// Send implements Transport. The frame is built in the socket's send
// arena, so a steady-state Send allocates nothing.
func (u *UDPTransport) Send(dg Datagram) error {
	if dg.Source == "" {
		dg.Source = u.local
	}
	peer, err := u.peerOf(dg.Destination)
	if err != nil {
		return err
	}
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	u.sendArena = appendFrame(u.sendArena[:0], dg)
	_, err = u.conn.WriteToUDPAddrPort(u.sendArena, peer)
	return err
}

// Receive implements Transport. A datagram still queued from an earlier
// message is returned first, with no syscall. Otherwise one message is
// read, with its control bytes, into the socket's first receive slot and
// cut by the splitter the batch path uses; only its payload copy is
// allocated, and segments after the first wait in the queue.
func (u *UDPTransport) Receive() (Datagram, error) {
	u.recvMu.Lock()
	defer u.recvMu.Unlock()
	if len(u.rxq) == 0 {
		slot, ctrl := u.recvSlot(0), u.recvControl(0)
		n, ctrln, flags, origin, err := u.conn.ReadMsgUDPAddrPort(slot, ctrl)
		if err != nil {
			return Datagram{}, receiveError(err)
		}
		arena := make([]byte, 0, n)
		if err := u.splitMessage(slot[:n], ctrl[:ctrln], flags, unmap(origin), &arena); len(u.rxq) == 0 {
			return Datagram{}, err
		}
	}
	var one [1]Datagram
	u.takePending(one[:])
	return one[0], nil
}

// receiveError maps a failed socket read: the poller's report that the
// socket was closed is ErrClosed, and anything else — a deadline, a
// transient errno such as ENOMEM — is an error on a socket that is still
// open, so a caller that stops at ErrClosed keeps reading.
func receiveError(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return fmt.Errorf("transport: receive: %w", err)
}

// Close implements Transport.
func (u *UDPTransport) Close() error { return u.conn.Close() }

//go:build linux && (amd64 || arm64)

package transport

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"strconv"
	"syscall"
	"unsafe"
)

// sendmmsg/recvmmsg plumbing. Go's frozen syscall package predates
// sendmmsg, so the two vector calls are issued raw: hand-built
// mmsghdr/msghdr/iovec structures (both supported architectures are
// 64-bit little-endian Linux, so one layout serves), syscall numbers
// from the per-arch files, and the net.UDPConn's SyscallConn for
// readiness integration — the raw fd is only ever touched inside
// RawConn.Read/Write callbacks, so Go's runtime poller keeps ownership
// of blocking.

const mmsgAvailable = true

// UDP generic segmentation offload. A run of consecutive frames with
// one destination and one size can ride a single sendmsg as one
// super-buffer with a UDP_SEGMENT control message: the kernel splits it
// into wire datagrams itself, so the per-datagram cost of traversing
// the socket layer is paid once per run instead of once per datagram —
// on top of what sendmmsg already amortises. Kernels without UDP_SEGMENT
// reject the control message with EINVAL; the first rejection latches
// gsoBroken and the socket quietly stays on plain sendmmsg.
//
// UDP generic receive offload is the mirror image. Every socket asks
// for UDP_GRO when it is bound, so a GSO run from a local sender reaches
// it unsplit — and a NIC may coalesce a remote peer's same-flow packets
// the same way — as one message whose UDP_GRO control message carries
// the segment size. The receiver therefore reads every message with a
// control buffer (Receive as well as recvmmsg) and cuts it in the one
// splitter, splitMessage. A kernel that refuses the option (ENOPROTOOPT
// or EINVAL before 5.0) segments before delivery and writes no control
// message, so every message reads back as one frame on the same path.
const (
	solUDP        = 17  // SOL_UDP, the cmsg level for UDP socket options
	udpSegment    = 103 // UDP_SEGMENT
	udpGRO        = 104 // UDP_GRO
	maxGSOSegs    = 64  // kernel UDP_MAX_SEGMENTS
	maxGSOPayload = 65000

	cmsgHdrLen = 16 // struct cmsghdr: uint64 len, int32 level, int32 type
	// groCtrlLen is CmsgSpace(4): room for the one control message a
	// receive can carry, UDP_GRO with the kernel's int segment size.
	groCtrlLen = 24
)

// gsoCmsg is struct cmsghdr plus the uint16 segment size, padded so an
// array of them keeps each header 8-byte aligned. Controllen must be
// CmsgLen(2) = 18, not the padded size.
type gsoCmsg struct {
	len   uint64
	level int32
	typ   int32
	seg   uint16
	_     [6]byte
}

const gsoCmsgLen = 18

// sendGroup is one message of a vector send: count frames packed
// contiguously in the arena starting at off, size bytes total. count >
// 1 means a GSO run of equal segSize-byte frames.
type sendGroup struct {
	off     int
	size    int
	segSize int
	count   int
	first   int // index of the run's first datagram (for its sockaddr)
}

type iovec struct {
	Base *byte
	Len  uint64
}

type msghdr struct {
	Name       *byte
	Namelen    uint32
	_          [4]byte
	Iov        *iovec
	Iovlen     uint64
	Control    *byte
	Controllen uint64
	Flags      int32
	_          [4]byte
}

type mmsghdr struct {
	Hdr msghdr
	Len uint32
	_   [4]byte
}

type rawSockaddrInet4 struct {
	Family uint16
	Port   uint16 // network byte order
	Addr   [4]byte
	Zero   [8]byte
}

// rawSockaddrInet6 is also the msg_name storage of a receive: it is the
// larger of the two layouts a UDP socket reports, and both start with
// the family and the port.
type rawSockaddrInet6 struct {
	Family   uint16
	Port     uint16 // network byte order
	Flowinfo uint32
	Addr     [16]byte
	ScopeID  uint32
}

// origin converts a received msg_name — AF_INET or AF_INET6, the two
// families a UDP socket reports — to the unmapped form the peer table
// holds.
func (sa *rawSockaddrInet6) origin() netip.AddrPort {
	port := sa.Port<<8 | sa.Port>>8
	if sa.Family == syscall.AF_INET {
		in4 := (*rawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(in4.Addr), port)
	}
	a := netip.AddrFrom16(sa.Addr).Unmap()
	if sa.ScopeID != 0 {
		a = a.WithZone(strconv.FormatUint(uint64(sa.ScopeID), 10))
	}
	return netip.AddrPortFrom(a, port)
}

// mmsgState is a socket's vector-call state. The arrays the kernel
// reads and writes live here, not on the stack: the RawConn callback
// captures them, so on the stack each would be moved to the heap, and
// zeroed, on every call (8 KB and 16 allocations per send+receive
// round, whatever the batch depth). rx is guarded by recvMu, tx by
// sendMu; each half is set up by its first call.
type mmsgState struct {
	rx struct {
		rc    syscall.RawConn
		call  func(fd uintptr) bool
		hdrs  [mmsgMaxBatch]mmsghdr
		iovs  [mmsgMaxBatch]iovec
		names [mmsgMaxBatch]rawSockaddrInet6
		ctrls [mmsgMaxBatch][groCtrlLen]byte
		want  int           // messages to ask for
		got   int           // messages received
		errno syscall.Errno // what stopped the receive, if anything
	}
	tx struct {
		rc     syscall.RawConn
		call   func(fd uintptr) bool
		hdrs   [mmsgMaxBatch]mmsghdr
		iovs   [mmsgMaxBatch]iovec
		cmsgs  [mmsgMaxBatch]gsoCmsg
		addrs  [mmsgMaxBatch]rawSockaddrInet4
		groups int           // messages to send
		sent   int           // messages sent
		errno  syscall.Errno // what stopped the send, if anything
	}
}

// enableGRO asks the kernel for UDP_GRO, best effort: a socket whose
// kernel refuses it receives no UDP_GRO control message, which the
// splitter reads as one frame per message.
func (u *UDPTransport) enableGRO() {
	if rc, err := u.conn.SyscallConn(); err == nil {
		_ = rc.Control(func(fd uintptr) {
			_ = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		})
	}
}

// recvControl is receive slot i's control buffer. Caller holds recvMu.
func (u *UDPTransport) recvControl(i int) []byte {
	return u.mmsg.rx.ctrls[i][:]
}

// segmentSize reads where a received n-byte message is cut: at the
// segment size its UDP_GRO control message carries, or nowhere (seg =
// n) when it has no control bytes. ok is false for a message that must
// be dropped whole, because a boundary could hide in it: a truncated
// payload (MSG_TRUNC), truncated control bytes (MSG_CTRUNC), or control
// bytes that are not one UDP_GRO message — the only one a socket asks
// for. The kernel's value is an int; a segment size fits its low 16
// bits, read little-endian as on both supported architectures.
func segmentSize(n int, control []byte, flags int) (seg int, ok bool) {
	if flags&(syscall.MSG_TRUNC|syscall.MSG_CTRUNC) != 0 {
		return 0, false
	}
	if len(control) == 0 {
		return n, true
	}
	if len(control) < cmsgHdrLen+2 {
		return 0, false
	}
	l := binary.LittleEndian.Uint64(control)
	level := binary.LittleEndian.Uint32(control[8:])
	typ := binary.LittleEndian.Uint32(control[12:])
	if l < cmsgHdrLen+2 || l > uint64(len(control)) || level != solUDP || typ != udpGRO {
		return 0, false
	}
	seg = int(binary.LittleEndian.Uint16(control[cmsgHdrLen:]))
	return seg, seg > 0
}

// sendBatchMmsg transmits dgs with sendmmsg, coalescing equal-size
// same-destination runs into GSO super-packets. handled == false means
// the socket or peer set cannot take the fast path (an IPv6 peer; a
// missing mapping is still a real error) and the caller must fall back.
func (u *UDPTransport) sendBatchMmsg(dgs []Datagram) (n int, err error, handled bool) {
	if len(dgs) == 0 {
		return 0, nil, true
	}
	// One batch send at a time per socket: the kernel serialises socket
	// writes anyway, and holding the lock across the syscall keeps the
	// iovecs' view of the shared arena stable.
	u.sendMu.Lock()
	defer u.sendMu.Unlock()
	total := len(dgs)
	done := 0
	for done < total {
		batch := total - done
		if batch > mmsgMaxBatch {
			batch = mmsgMaxBatch
		}
		sent, serr, ok := u.sendChunkMmsg(dgs[done : done+batch])
		if !ok {
			return 0, nil, false // IPv6 peer: portable loop handles it
		}
		done += sent
		if serr != nil {
			return done, serr, true
		}
	}
	return done, nil, true
}

// sendChunkMmsg sends up to mmsgMaxBatch datagrams with one vector
// call, retrying without GSO if the kernel rejects UDP_SEGMENT.
func (u *UDPTransport) sendChunkMmsg(dgs []Datagram) (n int, err error, handled bool) {
	batch := len(dgs)
	addrs := &u.mmsg.tx.addrs
	var offs [mmsgMaxBatch + 1]int
	// Frames are packed into one reusable arena rather than allocated
	// per datagram; iovecs are built only after the arena stops
	// growing, since append may move it.
	arena := u.sendArena[:0]
	var unmapped error
	for i := 0; i < batch; i++ {
		dg := &dgs[i]
		if dg.Source == "" {
			dg.Source = u.local
		}
		peer, err := u.peerOf(dg.Destination)
		if err != nil {
			// Hand off what precedes it, then report: n is how many
			// datagrams went out before the error, as a loop of Send
			// calls would have it.
			batch, unmapped = i, err
			break
		}
		if !peer.Addr().Is4() {
			return 0, nil, false
		}
		addrs[i].Family = syscall.AF_INET
		p := peer.Port()
		addrs[i].Port = p<<8 | p>>8
		addrs[i].Addr = peer.Addr().As4()
		offs[i] = len(arena)
		arena = appendFrame(arena, *dg)
	}
	offs[batch] = len(arena)
	u.sendArena = arena

	gso := u.gsoBroken.Load() == 0
	for batch > 0 {
		sent, callErr := u.sendGroupsMmsg(arena, addrs[:batch], offs[:batch+1], gso)
		n += sent
		if gso && callErr == syscall.EINVAL {
			// The kernel refused a UDP_SEGMENT control message; latch it
			// and resend whatever remains as plain per-datagram messages.
			u.gsoBroken.Store(1)
			gso = false
			copy(offs[:batch-sent+1], offs[sent:batch+1])
			copy(addrs[:batch-sent], addrs[sent:batch])
			batch -= sent
			continue
		}
		if callErr != nil {
			return n, fmt.Errorf("transport: sendmmsg: %w", callErr), true
		}
		break
	}
	return n, unmapped, true
}

// sendGroupsMmsg issues one sendmmsg over the packed frames, grouping
// GSO runs when gso is set. It returns the number of DATAGRAMS fully
// sent (message sends are whole groups, so the count maps exactly).
func (u *UDPTransport) sendGroupsMmsg(arena []byte, addrs []rawSockaddrInet4, offs []int, gso bool) (int, error) {
	batch := len(addrs)
	var groups [mmsgMaxBatch]sendGroup
	ng := 0
	for i := 0; i < batch; i++ {
		size := offs[i+1] - offs[i]
		if gso && ng > 0 {
			g := &groups[ng-1]
			if size == g.segSize && addrs[i] == addrs[g.first] &&
				g.count < maxGSOSegs && g.size+size <= maxGSOPayload {
				g.size += size
				g.count++
				continue
			}
		}
		groups[ng] = sendGroup{off: offs[i], size: size, segSize: size, count: 1, first: i}
		ng++
	}

	tx := &u.mmsg.tx
	if tx.rc == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return 0, err
		}
		tx.rc, tx.call = rc, u.sendmmsg
	}
	for g := 0; g < ng; g++ {
		gr := &groups[g]
		tx.iovs[g] = iovec{Base: &arena[gr.off], Len: uint64(gr.size)}
		tx.hdrs[g].Hdr = msghdr{
			Name:    (*byte)(unsafe.Pointer(&addrs[gr.first])),
			Namelen: uint32(unsafe.Sizeof(addrs[gr.first])),
			Iov:     &tx.iovs[g],
			Iovlen:  1,
		}
		if gr.count > 1 {
			tx.cmsgs[g] = gsoCmsg{len: gsoCmsgLen, level: solUDP, typ: udpSegment, seg: uint16(gr.segSize)}
			tx.hdrs[g].Hdr.Control = (*byte)(unsafe.Pointer(&tx.cmsgs[g]))
			tx.hdrs[g].Hdr.Controllen = gsoCmsgLen
		}
	}
	tx.groups, tx.sent, tx.errno = ng, 0, 0
	werr := tx.rc.Write(tx.call)
	dgSent := 0
	for g := 0; g < tx.sent; g++ {
		dgSent += groups[g].count
	}
	if werr != nil {
		return dgSent, werr
	}
	if tx.errno != 0 {
		return dgSent, tx.errno
	}
	return dgSent, nil
}

// sendmmsg is the RawConn write callback: it sends tx.hdrs[tx.sent:
// tx.groups], returning false to wait for the socket to become
// writable. Caller holds sendMu.
func (u *UDPTransport) sendmmsg(fd uintptr) bool {
	tx := &u.mmsg.tx
	for tx.sent < tx.groups {
		r, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&tx.hdrs[tx.sent])), uintptr(tx.groups-tx.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			tx.errno = e
			return true
		}
		tx.sent += int(r)
	}
	return true
}

// recvBatchMmsg fills buf with recvmmsg. Datagrams still queued from an
// earlier message are handed out first, with no syscall; otherwise it
// blocks for the first message (via the runtime poller) and takes
// whatever else the socket already holds, up to min(len(buf),
// mmsgMaxBatch) messages. Each message's msg_name is filled, so the
// learn step sees every frame's UDP origin exactly as Receive does, and
// each goes through splitMessage; segments past len(buf) wait in the
// queue. Frames that fail decoding are skipped, where a Receive loop
// would surface them one error at a time; only a batch with nothing else
// in it reports the error.
func (u *UDPTransport) recvBatchMmsg(buf []Datagram) (n int, err error, handled bool) {
	u.recvMu.Lock()
	defer u.recvMu.Unlock()
	if len(u.rxq) > 0 {
		return u.takePending(buf), nil, true
	}
	batch := min(len(buf), mmsgMaxBatch)
	rx := &u.mmsg.rx
	if rx.rc == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return 0, receiveError(err), true
		}
		rx.rc, rx.call = rc, u.recvmmsg
	}
	for i := 0; i < batch; i++ {
		rx.iovs[i] = iovec{Base: &u.recvSlot(i)[0], Len: mmsgSlotSize}
		rx.hdrs[i].Hdr = msghdr{
			Name:       (*byte)(unsafe.Pointer(&rx.names[i])),
			Namelen:    uint32(unsafe.Sizeof(rx.names[i])),
			Iov:        &rx.iovs[i],
			Iovlen:     1,
			Control:    &rx.ctrls[i][0],
			Controllen: groCtrlLen,
		}
	}
	rx.want, rx.got, rx.errno = batch, 0, 0
	if perr := rx.rc.Read(rx.call); perr != nil {
		return 0, receiveError(perr), true
	}
	if rx.errno != 0 {
		return 0, fmt.Errorf("transport: recvmmsg: %w", rx.errno), true
	}
	// Payloads are copied out of the reused slots into one backing
	// buffer for the whole call (the exact-capacity allocation keeps the
	// appends from moving it), and the address strings are interned — a
	// small stable set per socket, so the per-datagram decode makes no
	// allocations on the steady state.
	need := 0
	for i := 0; i < rx.got; i++ {
		need += int(rx.hdrs[i].Len)
	}
	arena := make([]byte, 0, need)
	var bad error
	for i := 0; i < rx.got; i++ {
		h := &rx.hdrs[i].Hdr
		ctrl := rx.ctrls[i][:h.Controllen]
		if err := u.splitMessage(u.recvBufs[i][:rx.hdrs[i].Len], ctrl, int(h.Flags), rx.names[i].origin(), &arena); err != nil {
			bad = err
		}
	}
	if len(u.rxq) == 0 {
		// Every frame in the batch was malformed; report one receive
		// with no datagrams rather than blocking again, so callers see
		// progress (the loop path would have returned the decode error).
		return 0, bad, true
	}
	return u.takePending(buf), nil, true
}

// recvmmsg is the RawConn read callback: one non-blocking recvmmsg of
// up to rx.want messages, returning false to wait for the socket to
// become readable. Caller holds recvMu.
func (u *UDPTransport) recvmmsg(fd uintptr) bool {
	rx := &u.mmsg.rx
	for {
		r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&rx.hdrs[0])), uintptr(rx.want),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		if e == syscall.EINTR {
			continue
		}
		if e != 0 {
			rx.errno = e
		} else {
			rx.got = int(r)
		}
		return true
	}
}

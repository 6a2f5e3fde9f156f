package transport

import (
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"fbs/internal/principal"
)

// Batched UDP I/O. On Linux (amd64/arm64) SendBatch and ReceiveBatch
// drive the kernel's sendmmsg/recvmmsg, paying one syscall for a whole
// batch of datagrams; elsewhere — or when the fast path reports the
// socket shape it cannot handle — they degrade to a loop of the
// single-datagram calls with identical semantics. The framing is
// byte-for-byte the framing Send and Receive use, so a batched sender
// interoperates with a loop receiver and vice versa (the equivalence
// test in udp_batch_test.go pins this).

// SetPortableBatch forces the portable loop fallback even where mmsg is
// available, so tests can compare the two paths on one platform.
func (u *UDPTransport) SetPortableBatch(v bool) {
	if v {
		u.portable.Store(1)
	} else {
		u.portable.Store(0)
	}
}

// usePortable reports whether batch calls must take the loop fallback.
func (u *UDPTransport) usePortable() bool {
	return !mmsgAvailable || u.portable.Load() != 0 || u.mmsgBroken.Load() != 0
}

// SendBatch implements BatchConn over sendmmsg where available.
func (u *UDPTransport) SendBatch(dgs []Datagram) (int, error) {
	if !u.usePortable() {
		n, err, handled := u.sendBatchMmsg(dgs)
		if handled {
			return n, err
		}
		// The fast path could not represent this socket or peer set
		// (e.g. an IPv6 peer); remember and degrade permanently.
		u.mmsgBroken.Store(1)
	}
	for i := range dgs {
		if err := u.Send(dgs[i]); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// ReceiveBatch implements BatchConn over recvmmsg where available: it
// returns what an earlier GRO message left queued, or else blocks for
// the first datagram and returns whatever else the socket already
// holds, up to len(buf).
func (u *UDPTransport) ReceiveBatch(buf []Datagram) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	if !u.usePortable() {
		n, err, handled := u.recvBatchMmsg(buf)
		if handled {
			return n, err
		}
		u.mmsgBroken.Store(1)
	}
	dg, err := u.Receive()
	if err != nil {
		return 0, err
	}
	buf[0] = dg
	return 1, nil
}

// mmsgMaxBatch bounds one vector call: enough to amortise the syscall
// to noise, small enough that the cached receive slots stay modest
// (mmsgMaxBatch × mmsgSlotSize = 2 MiB; a slot is allocated on first
// use, so a socket only ever read with Receive holds one).
const (
	mmsgMaxBatch = 32
	mmsgSlotSize = 65536
)

// batchState is embedded in UDPTransport: the fallback switches plus
// the reusable per-socket scratch (receive slots, the queue of decoded
// datagrams a receive could not hand out yet, the send frame arena, and
// the receive-side address intern table). Sends and receives on one
// socket each serialise on their mutex, which matches how a sharded
// deployment drives one socket per shard.
type batchState struct {
	portable   atomic.Int32
	mmsgBroken atomic.Int32
	gsoBroken  atomic.Int32

	recvMu     sync.Mutex
	recvBufs   [mmsgMaxBatch][]byte
	rxq        []Datagram // decoded, not yet returned; empty (len 0) once drained
	rxHead     int        // rxq[rxHead:] is still owed
	addrIntern map[string]principal.Address

	sendMu    sync.Mutex
	sendArena []byte

	mmsg mmsgState
}

// recvSlot returns receive slot i, allocating it on first use. Caller
// holds recvMu.
func (u *UDPTransport) recvSlot(i int) []byte {
	if u.recvBufs[i] == nil {
		u.recvBufs[i] = make([]byte, mmsgSlotSize)
	}
	return u.recvBufs[i]
}

// appendFrame appends dg's wire frame: the length-prefixed source and
// destination addresses, then the payload.
func appendFrame(b []byte, dg Datagram) []byte {
	b = appendWireAddress(b, dg.Source)
	b = appendWireAddress(b, dg.Destination)
	return append(b, dg.Payload...)
}

// appendWireAddress appends the length-prefixed wire form of a without
// the intermediate allocation Address.Wire makes.
func appendWireAddress(b []byte, a principal.Address) []byte {
	b = append(b, byte(len(a)>>8), byte(len(a)))
	return append(b, a...)
}

// errTruncated reports a message dropped whole by segmentSize.
var errTruncated = errors.New("transport: truncated message dropped")

// splitMessage is the one receive splitter, behind Receive and the
// recvmmsg path alike. msg is one kernel message from origin with its
// control bytes and flags: a plain frame, or a UDP_GRO super-buffer of
// equal segments (the last may be shorter), cut where segmentSize says.
// Each segment is decoded by decodeFrame, which learns it at the
// message's origin, into *arena and queued on rxq in order. The segments
// that decode are queued whatever else happens; a message dropped whole,
// or the last segment that failed to decode, is the returned error.
// Caller holds recvMu.
func (u *UDPTransport) splitMessage(msg, control []byte, flags int, origin netip.AddrPort, arena *[]byte) error {
	seg, ok := segmentSize(len(msg), control, flags)
	if !ok {
		return errTruncated
	}
	var bad error
	for off := 0; ; {
		end := min(off+seg, len(msg))
		if dg, err := u.decodeFrame(msg[off:end], origin, arena); err != nil {
			bad = err
		} else {
			u.rxq = append(u.rxq, dg)
		}
		if off = end; off >= len(msg) {
			return bad
		}
	}
}

// takePending moves queued datagrams into buf, oldest first, and returns
// how many. A drained queue keeps its backing array, cleared so it pins
// no arena. Caller holds recvMu.
func (u *UDPTransport) takePending(buf []Datagram) int {
	n := copy(buf, u.rxq[u.rxHead:])
	if u.rxHead += n; u.rxHead == len(u.rxq) {
		clear(u.rxq)
		u.rxq, u.rxHead = u.rxq[:0], 0
	}
	return n
}

// decodeFrame is the one frame decoder: it parses a wire frame that
// arrived from origin (length-prefixed source and destination
// addresses, then payload), runs the learn step, and appends the
// payload to *arena — the returned Datagram owns that copy, so the
// receive slot b sits in can be reused. Addresses come from the
// socket's intern table. Caller holds recvMu.
func (u *UDPTransport) decodeFrame(b []byte, origin netip.AddrPort, arena *[]byte) (Datagram, error) {
	src, used, err := u.internAddress(b)
	if err != nil {
		return Datagram{}, fmt.Errorf("transport: bad frame: %w", err)
	}
	b = b[used:]
	dst, used, err := u.internAddress(b)
	if err != nil {
		return Datagram{}, fmt.Errorf("transport: bad frame: %w", err)
	}
	b = b[used:]
	u.learnPeer(src, origin)
	a := *arena
	off := len(a)
	a = append(a, b...)
	*arena = a
	return Datagram{Source: src, Destination: dst, Payload: a[off:len(a):len(a)]}, nil
}

// internAddress decodes one length-prefixed address, returning the
// socket's canonical string for it — a map hit costs no allocation.
// The table is capped so a flood of forged source addresses cannot
// grow it without bound. Caller holds recvMu.
func (u *UDPTransport) internAddress(b []byte) (principal.Address, int, error) {
	if len(b) < 2 {
		return "", 0, fmt.Errorf("truncated address length")
	}
	n := int(b[0])<<8 | int(b[1])
	if len(b) < 2+n {
		return "", 0, fmt.Errorf("truncated address body: need %d bytes, have %d", n, len(b)-2)
	}
	raw := b[2 : 2+n]
	// A map probe keyed by string(raw) does not allocate; only a miss
	// materialises the string.
	if a, ok := u.addrIntern[string(raw)]; ok {
		return a, 2 + n, nil
	}
	a := principal.Address(raw)
	if u.addrIntern == nil {
		u.addrIntern = make(map[string]principal.Address)
	}
	if len(u.addrIntern) < 1024 {
		u.addrIntern[string(a)] = a
	}
	return a, 2 + n, nil
}

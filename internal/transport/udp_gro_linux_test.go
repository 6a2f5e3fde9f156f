//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"testing"
	"time"

	"fbs/internal/principal"
)

// countRecvMessages wraps u's recvmmsg callback so *msgs counts the
// kernel messages it returns.
func countRecvMessages(t *testing.T, u *UDPTransport, msgs *int) {
	t.Helper()
	rc, err := u.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rx := &u.mmsg.rx
	rx.rc = rc
	rx.call = func(fd uintptr) bool {
		done := u.recvmmsg(fd)
		if done {
			*msgs += rx.got
		}
		return done
	}
}

// groEnabled reads UDP_GRO back from u's socket; a kernel that refused
// the option, or cannot report it, reads as off.
func groEnabled(t *testing.T, u *UDPTransport) bool {
	t.Helper()
	rc, err := u.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	on := 0
	if err := rc.Control(func(fd uintptr) { on, _ = syscall.GetsockoptInt(int(fd), solUDP, udpGRO) }); err != nil {
		t.Fatal(err)
	}
	return on != 0
}

// TestUDPGRORunQueuesSegments: a 40-frame GSO send reaches a GRO socket
// as at most two kernel messages, and a 16-slot ReceiveBatch hands the
// frames back in order and byte for byte, the segments past each call's
// buf waiting in the queue.
func TestUDPGRORunQueuesSegments(t *testing.T) {
	a, b := udpPair(t)
	if a.gsoBroken.Load() != 0 || !groEnabled(t, b) {
		t.Skip("kernel without UDP_SEGMENT or UDP_GRO")
	}
	msgs := 0
	countRecvMessages(t, b, &msgs)
	const N = 40
	dgs := make([]Datagram, N)
	for i := range dgs {
		dgs[i] = Datagram{Destination: "ub", Payload: []byte(fmt.Sprintf("frame-%03d", i))}
	}
	if n, err := a.SendBatch(dgs); err != nil || n != N {
		t.Fatalf("SendBatch = %d, %v", n, err)
	}
	got := collect(t, b, N)
	if len(got) != N {
		t.Fatalf("received %d datagrams, want %d", len(got), N)
	}
	for i, dg := range got {
		if dg.Source != "ua" || dg.Destination != "ub" || !bytes.Equal(dg.Payload, dgs[i].Payload) {
			t.Fatalf("datagram %d = %s->%s %q, want ua->ub %q", i, dg.Source, dg.Destination, dg.Payload, dgs[i].Payload)
		}
	}
	if msgs > 2 {
		t.Fatalf("40 GSO frames arrived as %d kernel messages, want at most 2", msgs)
	}
	if len(b.rxq) != 0 {
		t.Fatalf("%d datagrams left queued", len(b.rxq)-b.rxHead)
	}
}

// TestUDPSendPacksGSORuns pins the send-side grouping: equal-size frames
// to one peer ride one UDP_SEGMENT message per vector call, and a
// mixed-size batch is cut at every size change (a run of one goes
// without the control message).
func TestUDPSendPacksGSORuns(t *testing.T) {
	a, b := udpPair(t)
	if a.gsoBroken.Load() != 0 {
		t.Skip("kernel without UDP_SEGMENT")
	}
	type message struct{ bytes, seg int } // seg 0: no UDP_SEGMENT
	var sent []message
	rc, err := a.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	tx := &a.mmsg.tx
	tx.rc = rc
	tx.call = func(fd uintptr) bool {
		from := tx.sent
		done := a.sendmmsg(fd)
		for g := from; g < tx.sent; g++ {
			m := message{bytes: int(tx.iovs[g].Len)}
			if tx.hdrs[g].Hdr.Controllen != 0 {
				m.seg = int(tx.cmsgs[g].seg)
			}
			sent = append(sent, m)
		}
		return done
	}
	frameLen := func(payload int) int { return 2 + len("ua") + 2 + len("ub") + payload }
	for _, c := range []struct {
		name  string
		sizes []int // payload bytes per frame
		want  []message
	}{
		{"equal", repeat(16, 40), []message{{32 * frameLen(16), frameLen(16)}, {8 * frameLen(16), frameLen(16)}}},
		{"mixed", []int{5, 5, 5, 9, 9, 5, 7, 7, 7, 7}, []message{
			{3 * frameLen(5), frameLen(5)}, {2 * frameLen(9), frameLen(9)}, {frameLen(5), 0}, {4 * frameLen(7), frameLen(7)},
		}},
	} {
		sent = sent[:0]
		dgs := make([]Datagram, len(c.sizes))
		for i, size := range c.sizes {
			dgs[i] = Datagram{Destination: "ub", Payload: bytes.Repeat([]byte{byte(i)}, size)}
		}
		if n, err := a.SendBatch(dgs); err != nil || n != len(dgs) {
			t.Fatalf("%s: SendBatch = %d, %v", c.name, n, err)
		}
		if fmt.Sprint(sent) != fmt.Sprint(c.want) {
			t.Fatalf("%s: sendmmsg messages (bytes, segment) = %v, want %v", c.name, sent, c.want)
		}
		got := collect(t, b, len(dgs))
		for i, dg := range got {
			if !bytes.Equal(dg.Payload, dgs[i].Payload) {
				t.Fatalf("%s: datagram %d = %x, want %x", c.name, i, dg.Payload, dgs[i].Payload)
			}
		}
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestUDPReceiveErrorMapping: only the poller's report of a closed
// socket is ErrClosed. A transient recvmmsg errno and an expired read
// deadline come back as errors a receive loop can log and read past, on
// both receive paths, and the socket keeps working after them.
func TestUDPReceiveErrorMapping(t *testing.T) {
	a, b := udpPair(t)
	rc, err := b.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	rx := &b.mmsg.rx
	rx.rc = rc
	rx.call = func(uintptr) bool { rx.errno = syscall.ENOMEM; return true }
	buf := make([]Datagram, 4)
	if _, err := b.ReceiveBatch(buf); err == nil || errors.Is(err, ErrClosed) || !errors.Is(err, syscall.ENOMEM) {
		t.Fatalf("ReceiveBatch on ENOMEM = %v, want an ENOMEM error that is not ErrClosed", err)
	}
	rx.call = b.recvmmsg
	if err := a.Send(Datagram{Destination: "ub", Payload: []byte("still open")}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, b, 1); string(got[0].Payload) != "still open" {
		t.Fatalf("after ENOMEM the socket delivered %q", got[0].Payload)
	}

	b.conn.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := b.Receive(); errors.Is(err, ErrClosed) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Receive past its deadline = %v, want a deadline error that is not ErrClosed", err)
	}
	if _, err := b.ReceiveBatch(buf); errors.Is(err, ErrClosed) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("ReceiveBatch past its deadline = %v, want a deadline error that is not ErrClosed", err)
	}

	b.Close()
	if _, err := b.Receive(); err != ErrClosed {
		t.Fatalf("Receive on a closed socket = %v, want ErrClosed", err)
	}
	if _, err := b.ReceiveBatch(buf); err != ErrClosed {
		t.Fatalf("ReceiveBatch on a closed socket = %v, want ErrClosed", err)
	}
}

// groControl is the control block the kernel writes for a UDP_GRO
// message: CmsgLen(4), SOL_UDP, UDP_GRO, the int segment size, padding.
func groControl(seg uint16) []byte {
	c := make([]byte, groCtrlLen)
	binary.LittleEndian.PutUint64(c, cmsgHdrLen+4)
	binary.LittleEndian.PutUint32(c[8:], solUDP)
	binary.LittleEndian.PutUint32(c[12:], udpGRO)
	binary.LittleEndian.PutUint32(c[16:], uint32(seg))
	return c
}

// FuzzUDPFrames drives the receive splitter and decodeFrame with
// arbitrary message bytes and a segment size, under control bytes of
// four shapes: absent, a UDP_GRO message, that message cut short, and
// that message flagged MSG_CTRUNC; the message itself may be flagged
// MSG_TRUNC. A peer's same-flow packets reach the splitter coalesced by
// the NIC, so every byte is the attacker's. The splitter must not panic;
// what it queues must be exactly what decodeFrame makes of each segment,
// in order, with each source learned at the message's origin; and a
// truncated message, or one whose control is unusable, queues nothing.
func FuzzUDPFrames(f *testing.F) {
	frame := appendFrame(nil, Datagram{Source: "ua", Destination: "ub", Payload: []byte("payload")})
	run := append(append(append([]byte{}, frame...), frame...), frame[:9]...)
	f.Add(frame, uint16(0), uint8(0), false)
	f.Add([]byte{}, uint16(0), uint8(0), false)
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(run, uint16(len(frame)), shape, false)
	}
	f.Add(run, uint16(len(frame)), uint8(1), true)
	f.Add(run, uint16(0), uint8(1), false)
	f.Add(run, uint16(3), uint8(1), false)
	origin := netip.MustParseAddrPort("192.0.2.1:4500")
	f.Fuzz(func(t *testing.T, msg []byte, seg uint16, shape uint8, trunc bool) {
		ctrl, flags := groControl(seg), 0
		cut, drop := len(msg), trunc
		switch shape % 4 {
		case 0:
			ctrl = nil
		case 1:
			cut, drop = int(seg), drop || seg == 0
		case 2:
			ctrl, drop = ctrl[:1+int(seg)%(cmsgHdrLen+3)], true
		case 3:
			flags, drop = syscall.MSG_CTRUNC, true
		}
		if trunc {
			flags |= syscall.MSG_TRUNC
		}
		u := &UDPTransport{learn: true, peers: map[principal.Address]netip.AddrPort{}}
		var arena []byte
		err := u.splitMessage(msg, ctrl, flags, origin, &arena)
		if drop {
			if err == nil || len(u.rxq) != 0 {
				t.Fatalf("dropped message: queued %d, err %v", len(u.rxq), err)
			}
			return
		}
		ref := &UDPTransport{}
		var refArena []byte
		var want []Datagram
		for off := 0; ; {
			end := min(off+cut, len(msg))
			if dg, err := ref.decodeFrame(msg[off:end], origin, &refArena); err == nil {
				want = append(want, dg)
			}
			if off = end; off >= len(msg) {
				break
			}
		}
		if len(u.rxq) != len(want) {
			t.Fatalf("queued %d datagrams, want %d", len(u.rxq), len(want))
		}
		for i, dg := range u.rxq {
			w := want[i]
			if dg.Source != w.Source || dg.Destination != w.Destination || !bytes.Equal(dg.Payload, w.Payload) {
				t.Fatalf("datagram %d = %q->%q %x, want %q->%q %x", i, dg.Source, dg.Destination, dg.Payload, w.Source, w.Destination, w.Payload)
			}
			if u.peers[dg.Source] != origin {
				t.Fatalf("source %q not learned at the message's origin", dg.Source)
			}
		}
	})
}

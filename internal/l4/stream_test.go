package l4

import (
	"bytes"
	"io"
	"sync"
	"testing"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/ip"
)

// streamWire connects two stacks, optionally dropping frames. Like a
// link, it delivers to each destination in the order frames were sent:
// one goroutine per destination drains its queue while frames wait.
type streamWire struct {
	mu     sync.Mutex
	peers  map[ip.Addr]*ip.Stack
	drop   func(n int) bool // called with a frame counter; true = drop
	count  int
	queues map[*ip.Stack]*[][]byte // pending frames of a destination being drained
}

func (w *streamWire) sender(self ip.Addr) ip.LinkFunc {
	return ip.LinkFunc(func(frame []byte) error {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.count++
		var dst *ip.Stack
		if h, _, err := ip.Unmarshal(frame); err == nil {
			dst = w.peers[h.Dst]
		}
		if dst == nil || (w.drop != nil && w.drop(w.count)) {
			return nil
		}
		frame = append([]byte(nil), frame...)
		if q := w.queues[dst]; q != nil {
			*q = append(*q, frame)
			return nil
		}
		if w.queues == nil {
			w.queues = make(map[*ip.Stack]*[][]byte)
		}
		q := &[][]byte{frame}
		w.queues[dst] = q
		go func() {
			for {
				w.mu.Lock()
				if len(*q) == 0 {
					delete(w.queues, dst)
					w.mu.Unlock()
					return
				}
				f := (*q)[0]
				*q = (*q)[1:]
				w.mu.Unlock()
				dst.Input(f)
			}
		}()
		return nil
	})
}

func streamFixture(t *testing.T, drop func(int) bool, secHdr int) (*StreamStack, *StreamStack, ip.Addr, ip.Addr) {
	t.Helper()
	w := &streamWire{peers: make(map[ip.Addr]*ip.Stack), drop: drop}
	a := ip.Addr{10, 0, 0, 1}
	b := ip.Addr{10, 0, 0, 2}
	sa, err := ip.NewStack(ip.StackConfig{Addr: a, Link: w.sender(a)})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ip.NewStack(ip.StackConfig{Addr: b, Link: w.sender(b)})
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.peers[a] = sa
	w.peers[b] = sb
	w.mu.Unlock()
	ssa, err := NewStreamStack(sa, StreamConfig{RTO: 20 * time.Millisecond, SecurityHeaderLen: secHdr})
	if err != nil {
		t.Fatal(err)
	}
	ssb, err := NewStreamStack(sb, StreamConfig{RTO: 20 * time.Millisecond, SecurityHeaderLen: secHdr})
	if err != nil {
		t.Fatal(err)
	}
	return ssa, ssb, a, b
}

func transfer(t *testing.T, ssa, ssb *StreamStack, dst ip.Addr, data []byte) []byte {
	t.Helper()
	ln, err := ssb.Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	result := make(chan []byte, 1)
	errc := make(chan error, 2)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errc <- err
			return
		}
		got, err := io.ReadAll(conn)
		if err != nil {
			errc <- err
			return
		}
		result <- got
	}()
	conn, err := ssa.Dial(dst, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-result:
		return got
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("transfer timed out")
	}
	return nil
}

func TestStreamTransfer(t *testing.T) {
	ssa, ssb, _, b := streamFixture(t, nil, 0)
	data := make([]byte, 200_000)
	lcg := cryptolib.NewLCGSeeded(3)
	for i := range data {
		data[i] = byte(lcg.Uint32())
	}
	got := transfer(t, ssa, ssb, b, data)
	if !bytes.Equal(got, data) {
		t.Fatalf("transfer corrupted: %d bytes in, %d out", len(data), len(got))
	}
}

func TestStreamEmptyTransfer(t *testing.T) {
	ssa, ssb, _, b := streamFixture(t, nil, 0)
	got := transfer(t, ssa, ssb, b, nil)
	if len(got) != 0 {
		t.Fatalf("expected empty stream, got %d bytes", len(got))
	}
}

func TestStreamSurvivesLoss(t *testing.T) {
	lcg := cryptolib.NewLCGSeeded(99)
	drop := func(n int) bool {
		if n <= 2 {
			return false // let the handshake through quickly
		}
		return lcg.Uint32()%10 == 0 // 10% loss
	}
	ssa, ssb, _, b := streamFixture(t, drop, 0)
	data := make([]byte, 60_000)
	for i := range data {
		data[i] = byte(i * 13)
	}
	got := transfer(t, ssa, ssb, b, data)
	if !bytes.Equal(got, data) {
		t.Fatal("lossy transfer corrupted")
	}
}

func TestStreamDialNoListener(t *testing.T) {
	ssa, _, _, b := streamFixture(t, nil, 0)
	start := time.Now()
	if _, err := ssa.Dial(b, 4444); err == nil {
		t.Fatal("dial to non-listening port succeeded")
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("dial timeout took too long")
	}
}

func TestStreamListenTwice(t *testing.T) {
	_, ssb, _, _ := streamFixture(t, nil, 0)
	if _, err := ssb.Listen(7777); err != nil {
		t.Fatal(err)
	}
	if _, err := ssb.Listen(7777); err == nil {
		t.Fatal("double listen succeeded")
	}
}

// TestStreamSegmentSizingWithSecurityHeader reproduces the tcp_output
// interaction of Section 7.2 end to end: with the security header
// accounted for, maximal segments plus a 36-byte FBS header still fit
// the MTU; without the fix, the DF-flagged packets would exceed it.
func TestStreamSegmentSizingWithSecurityHeader(t *testing.T) {
	const fbsHdr = 36
	// A hook that emulates FBS growth: it prepends 36 bytes on output
	// and strips them on input, failing loudly if a packet would not
	// have fit.
	w := &streamWire{peers: make(map[ip.Addr]*ip.Stack)}
	a := ip.Addr{10, 0, 0, 1}
	b := ip.Addr{10, 0, 0, 2}
	grow := hookFunc{
		out: func(dst []byte, h *ip.Header, p []byte) ([]byte, error) {
			return append(append(dst, make([]byte, fbsHdr)...), p...), nil
		},
		in: func(h *ip.Header, p []byte) ([]byte, error) {
			return p[fbsHdr:], nil
		},
	}
	sa, _ := ip.NewStack(ip.StackConfig{Addr: a, Link: w.sender(a), Hook: grow})
	sb, _ := ip.NewStack(ip.StackConfig{Addr: b, Link: w.sender(b), Hook: grow})
	w.mu.Lock()
	w.peers[a] = sa
	w.peers[b] = sb
	w.mu.Unlock()
	ssa, _ := NewStreamStack(sa, StreamConfig{RTO: 20 * time.Millisecond, SecurityHeaderLen: fbsHdr})
	ssb, _ := NewStreamStack(sb, StreamConfig{RTO: 20 * time.Millisecond, SecurityHeaderLen: fbsHdr})
	data := make([]byte, 50_000)
	got := transfer(t, ssa, ssb, b, data)
	if !bytes.Equal(got, data) {
		t.Fatal("transfer with security header corrupted")
	}
	// The unfixed sizing: segments fill the MTU exactly, the hook's 36
	// bytes push DF packets over, and the transfer cannot make progress.
	unfixedA, _ := NewStreamStack(mustStack(t, ip.Addr{10, 0, 0, 3}, w), StreamConfig{RTO: 10 * time.Millisecond, SecurityHeaderLen: 0})
	_ = unfixedA
	mss := MaxSegmentData(1500, 0, 0)
	over := ip.Packet{
		Header:  ip.Header{Flags: ip.FlagDF, TTL: 64, Protocol: ip.ProtoTCP},
		Payload: make([]byte, TCPHeaderLen+fbsHdr+mss),
	}
	if _, err := ip.Fragment(over, 1500); err != ip.ErrNeedsFragmentation {
		t.Fatalf("unfixed sizing should trip DF, got %v", err)
	}
}

func mustStack(t *testing.T, addr ip.Addr, w *streamWire) *ip.Stack {
	t.Helper()
	s, err := ip.NewStack(ip.StackConfig{Addr: addr, Link: w.sender(addr)})
	if err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.peers[addr] = s
	w.mu.Unlock()
	return s
}

type hookFunc struct {
	out func([]byte, *ip.Header, []byte) ([]byte, error)
	in  func(*ip.Header, []byte) ([]byte, error)
}

func (h hookFunc) OutputHook(dst []byte, hd *ip.Header, p []byte) ([]byte, error) {
	return h.out(dst, hd, p)
}
func (h hookFunc) InputHook(hd *ip.Header, p []byte) ([]byte, error) { return h.in(hd, p) }

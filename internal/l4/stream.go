package l4

import (
	"fmt"
	"io"
	"sync"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/ip"
)

// This file provides a reliable byte stream over the IP substrate — a
// deliberately simplified TCP (go-back-N, fixed windows, no congestion
// control) sufficient to run the paper's ttcp/rcp-style workloads
// through a real stack with FBS hooked in. Segment sizing uses
// MaxSegmentData with the security header accounted for, i.e. the
// tcp_output fix of Section 7.2 is applied (and removing it breaks
// exactly the way the paper describes — see the tests).

// StreamConfig configures a StreamStack.
type StreamConfig struct {
	// Window is the go-back-N window in segments; default 8.
	Window int
	// RTO is the retransmission timeout; default 50 ms.
	RTO time.Duration
	// SecurityHeaderLen is the per-datagram security overhead the
	// segment-size calculation must account for: 0 for a stock stack,
	// core.SealOverhead for FBS. Note the header alone (core.HeaderSize)
	// is NOT enough when the body is encrypted — PKCS#7 padding grows
	// the sealed body by up to a cipher block, and an exact-fit segment
	// sized for just the header overflows the MTU on aligned payloads.
	// Getting this wrong with DF set reproduces the 4.4BSD tcp_output
	// bug.
	SecurityHeaderLen int
	// Ports allocates ephemeral ports; default 1024-65535 with no
	// reuse quarantine.
	Ports *PortAllocator
}

type connKey struct {
	localPort  uint16
	remoteAddr ip.Addr
	remotePort uint16
}

// StreamStack multiplexes stream connections over one host's IP stack.
type StreamStack struct {
	stack *ip.Stack
	cfg   StreamConfig

	mu        sync.Mutex
	conns     map[connKey]*StreamConn
	listeners map[uint16]*Listener
	isn       *cryptolib.LCG

	// segBufs recycles marshalled-segment buffers across sendFlags
	// calls: the stack's output path copies the segment into frames
	// before returning, so the buffer is free again as soon as Output
	// does.
	segBufs sync.Pool
}

// NewStreamStack attaches the stream protocol to an IP stack (as its
// ProtoTCP handler).
func NewStreamStack(stack *ip.Stack, cfg StreamConfig) (*StreamStack, error) {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.Ports == nil {
		p, err := NewPortAllocator(1024, 65535, 0)
		if err != nil {
			return nil, err
		}
		cfg.Ports = p
	}
	ss := &StreamStack{
		stack:     stack,
		cfg:       cfg,
		conns:     make(map[connKey]*StreamConn),
		listeners: make(map[uint16]*Listener),
		isn:       cryptolib.NewLCG(),
	}
	stack.Handle(ip.ProtoTCP, ss.input)
	return ss, nil
}

// mss returns the usable payload per segment.
func (ss *StreamStack) mss() int {
	return MaxSegmentData(ss.stack.MTU(), 0, ss.cfg.SecurityHeaderLen)
}

// Listener accepts inbound connections on a port.
type Listener struct {
	ss      *StreamStack
	port    uint16
	backlog chan *StreamConn
	closed  chan struct{}
	once    sync.Once
}

// Listen starts accepting connections on port.
func (ss *StreamStack) Listen(port uint16) (*Listener, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, busy := ss.listeners[port]; busy {
		return nil, fmt.Errorf("l4: port %d already listening", port)
	}
	l := &Listener{
		ss:      ss,
		port:    port,
		backlog: make(chan *StreamConn, 16),
		closed:  make(chan struct{}),
	}
	ss.listeners[port] = l
	return l, nil
}

// Accept blocks for the next inbound connection.
func (l *Listener) Accept() (*StreamConn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, fmt.Errorf("l4: listener closed")
	}
}

// Close stops the listener.
func (l *Listener) Close() {
	l.once.Do(func() {
		close(l.closed)
		l.ss.mu.Lock()
		delete(l.ss.listeners, l.port)
		l.ss.mu.Unlock()
	})
}

// StreamConn is one reliable, unidirectionally-written byte stream
// (writes flow from the dialing side to the accepting side; acks flow
// back). It implements io.Reader on the accepting side and io.Writer on
// the dialing side.
type StreamConn struct {
	ss  *StreamStack
	key connKey
	mss int

	mu   sync.Mutex
	cond *sync.Cond
	// Sender state.
	sndBase  uint32 // lowest unacked seq
	sndNext  uint32 // next seq to assign
	segments []segment
	lastSend time.Time
	// Receiver state.
	rcvNext uint32
	rcvBuf  []byte
	rcvFIN  bool
	// Lifecycle.
	established bool
	closed      bool
	err         error
}

type segment struct {
	seq  uint32
	data []byte
	fin  bool
}

// Dial opens a stream to remote:port, blocking through the handshake.
func (ss *StreamStack) Dial(remote ip.Addr, port uint16) (*StreamConn, error) {
	local, err := ss.cfg.Ports.Alloc(time.Now())
	if err != nil {
		return nil, err
	}
	key := connKey{localPort: local, remoteAddr: remote, remotePort: port}
	c := ss.newConn(key)
	c.sndBase = uint32(ss.isn.Uint32())
	c.sndNext = c.sndBase
	ss.mu.Lock()
	ss.conns[key] = c
	ss.mu.Unlock()

	// SYN / SYN-ACK.
	deadline := time.Now().Add(64 * ss.cfg.RTO)
	for {
		if err := c.sendFlags(TCPSyn, c.sndBase, 0, nil); err != nil {
			return nil, err
		}
		c.mu.Lock()
		for !c.established && c.err == nil && time.Now().Before(deadline) {
			c.waitWithTimeout(ss.cfg.RTO)
		}
		est, cerr := c.established, c.err
		c.mu.Unlock()
		if cerr != nil {
			return nil, cerr
		}
		if est {
			break
		}
		if !time.Now().Before(deadline) {
			ss.dropConn(key)
			return nil, fmt.Errorf("l4: connect to %v:%d timed out", remote, port)
		}
	}
	// The SYN consumed one sequence number: data starts at ISN+1.
	c.mu.Lock()
	c.sndBase++
	c.sndNext = c.sndBase
	c.mu.Unlock()
	go c.pump()
	return c, nil
}

func (ss *StreamStack) newConn(key connKey) *StreamConn {
	c := &StreamConn{ss: ss, key: key, mss: ss.mss()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (ss *StreamStack) dropConn(key connKey) {
	ss.mu.Lock()
	delete(ss.conns, key)
	ss.mu.Unlock()
}

// waitWithTimeout waits on the cond for at most d. Callers hold c.mu.
func (c *StreamConn) waitWithTimeout(d time.Duration) {
	timer := time.AfterFunc(d, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	c.cond.Wait()
	timer.Stop()
}

// sendFlags emits a control/data segment. The marshalled segment lives
// in a pooled buffer: Output copies it into link frames synchronously,
// so the buffer can be recycled as soon as Output returns.
func (c *StreamConn) sendFlags(flags uint8, seq, ack uint32, data []byte) error {
	h := TCPHeader{
		SrcPort: c.key.localPort,
		DstPort: c.key.remotePort,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  uint16(c.ss.cfg.Window),
	}
	bp, _ := c.ss.segBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	seg, err := h.MarshalAppend((*bp)[:0], data, c.ss.stack.Addr(), c.key.remoteAddr)
	if err != nil {
		c.ss.segBufs.Put(bp)
		return err
	}
	*bp = seg
	// DF is set, as tcp_output does: segments are sized to fit exactly.
	err = c.ss.stack.Output(ip.ProtoTCP, c.key.remoteAddr, seg, true)
	c.ss.segBufs.Put(bp)
	return err
}

// Write queues data for transmission; it blocks while the window's
// worth of queue is outstanding and returns once the data is queued
// (not necessarily acked — use CloseWrite to flush).
func (c *StreamConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, fmt.Errorf("l4: write on closed stream")
	}
	n := 0
	for len(p) > 0 {
		if c.err != nil {
			return n, c.err
		}
		// Backpressure: bound the queue at 4 windows.
		for len(c.segments) >= 4*c.ss.cfg.Window && c.err == nil {
			c.waitWithTimeout(c.ss.cfg.RTO)
		}
		chunk := len(p)
		if chunk > c.mss {
			chunk = c.mss
		}
		data := make([]byte, chunk)
		copy(data, p[:chunk])
		c.segments = append(c.segments, segment{seq: c.sndNext, data: data})
		c.sndNext += uint32(chunk)
		p = p[chunk:]
		n += chunk
	}
	c.cond.Broadcast()
	return n, nil
}

// CloseWrite sends FIN and blocks until everything is acknowledged.
func (c *StreamConn) CloseWrite() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.segments = append(c.segments, segment{seq: c.sndNext, fin: true})
	c.sndNext++
	c.cond.Broadcast()
	deadline := time.Now().Add(256 * c.ss.cfg.RTO)
	for c.sndBase != c.sndNext && c.err == nil {
		if !time.Now().Before(deadline) {
			c.mu.Unlock()
			return fmt.Errorf("l4: close timed out with %d bytes unacked", c.sndNext-c.sndBase)
		}
		c.waitWithTimeout(c.ss.cfg.RTO)
	}
	err := c.err
	c.mu.Unlock()
	c.ss.dropConn(c.key)
	c.ss.cfg.Ports.Release(c.key.localPort, time.Now())
	return err
}

// Read returns in-order received bytes; io.EOF after the peer's FIN.
func (c *StreamConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.rcvBuf) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.rcvFIN {
			return 0, io.EOF
		}
		c.cond.Wait()
	}
	n := copy(p, c.rcvBuf)
	c.rcvBuf = c.rcvBuf[n:]
	return n, nil
}

// pump is the sender loop: transmit the window, retransmit from the
// base on timeout (go-back-N).
func (c *StreamConn) pump() {
	for {
		c.mu.Lock()
		for len(c.segments) == 0 && c.err == nil {
			if c.closed && c.sndBase == c.sndNext {
				c.mu.Unlock()
				return
			}
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		// Send up to a window of queued segments.
		w := c.ss.cfg.Window
		if w > len(c.segments) {
			w = len(c.segments)
		}
		toSend := make([]segment, w)
		copy(toSend, c.segments[:w])
		c.lastSend = time.Now()
		c.mu.Unlock()
		for _, s := range toSend {
			flags := uint8(TCPAck | TCPPsh)
			if s.fin {
				flags = TCPFin | TCPAck
			}
			if err := c.sendFlags(flags, s.seq, 0, s.data); err != nil {
				c.fail(err)
				return
			}
		}
		// Wait for acks or timeout; on timeout the loop re-sends from
		// the (possibly advanced) base.
		c.mu.Lock()
		before := c.sndBase
		deadline := time.Now().Add(c.ss.cfg.RTO)
		for c.sndBase == before && len(c.segments) > 0 && c.err == nil && time.Now().Before(deadline) {
			c.waitWithTimeout(c.ss.cfg.RTO)
		}
		done := len(c.segments) == 0 && c.closed && c.sndBase == c.sndNext
		c.mu.Unlock()
		if done {
			return
		}
	}
}

func (c *StreamConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// input dispatches an inbound TCP segment.
func (ss *StreamStack) input(h *ip.Header, payload []byte) {
	th, data, err := UnmarshalTCP(payload, h.Src, h.Dst)
	if err != nil {
		return
	}
	key := connKey{localPort: th.DstPort, remoteAddr: h.Src, remotePort: th.SrcPort}
	ss.mu.Lock()
	c, ok := ss.conns[key]
	listener := ss.listeners[th.DstPort]
	ss.mu.Unlock()

	switch {
	case th.Flags&TCPSyn != 0 && th.Flags&TCPAck == 0:
		// Inbound connection request.
		if listener == nil {
			return
		}
		if !ok {
			c = ss.newConn(key)
			c.established = true
			c.rcvNext = th.Seq + 1
			ss.mu.Lock()
			ss.conns[key] = c
			ss.mu.Unlock()
			select {
			case listener.backlog <- c:
			default:
				ss.dropConn(key)
				return
			}
		}
		// (Re-)send SYN-ACK; duplicate SYNs get the same answer.
		c.mu.Lock()
		ackTo := c.rcvNext
		c.mu.Unlock()
		c.sendFlags(TCPSyn|TCPAck, 0, ackTo, nil)
	case th.Flags&TCPSyn != 0 && th.Flags&TCPAck != 0:
		// Handshake completion at the dialer.
		if c == nil {
			return
		}
		c.mu.Lock()
		c.established = true
		base := c.sndBase
		c.cond.Broadcast()
		c.mu.Unlock()
		c.sendFlags(TCPAck, base, th.Seq+1, nil)
	case th.Flags&(TCPFin|TCPPsh) != 0 || len(data) > 0:
		// Data or FIN at the receiver.
		if c == nil {
			return
		}
		c.mu.Lock()
		if th.Seq == c.rcvNext {
			if th.Flags&TCPFin != 0 {
				c.rcvFIN = true
				c.rcvNext++
			} else {
				c.rcvBuf = append(c.rcvBuf, data...)
				c.rcvNext += uint32(len(data))
			}
			c.cond.Broadcast()
		}
		ackTo := c.rcvNext
		c.mu.Unlock()
		// Cumulative ack (also re-acks duplicates/out-of-order).
		c.sendFlags(TCPAck, 0, ackTo, nil)
	case th.Flags&TCPAck != 0:
		// Pure ack at the sender.
		if c == nil {
			return
		}
		c.mu.Lock()
		if seqLessOrEqual(c.sndBase, th.Ack) && seqLessOrEqual(th.Ack, c.sndNext) {
			// Drop fully-acked segments.
			c.sndBase = th.Ack
			for len(c.segments) > 0 {
				s := c.segments[0]
				end := s.seq + uint32(len(s.data))
				if s.fin {
					end = s.seq + 1
				}
				if seqLessOrEqual(end, th.Ack) {
					c.segments = c.segments[1:]
				} else {
					break
				}
			}
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// seqLessOrEqual compares 32-bit sequence numbers with wraparound.
func seqLessOrEqual(a, b uint32) bool {
	return int32(b-a) >= 0
}

package ip

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fbs/internal/core"
)

// LinkFunc is the network interface below the stack: it transmits one
// marshalled IP packet toward its destination.
type LinkFunc func(frame []byte) error

// ProtocolHandler consumes a reassembled, security-processed packet for
// one transport protocol.
type ProtocolHandler func(h *Header, payload []byte)

// SecurityHook is the pair of interposition points the paper added to the
// 4.4BSD IP code (Section 7.2): output processing → [OutputHook] →
// fragmentation → transmit, and validation → reassembly → [InputHook] →
// dispatch. FBS plugs in here; a nil hook reproduces GENERIC (stock IP).
type SecurityHook interface {
	// OutputHook may transform the packet (e.g. insert the FBS header)
	// after route/option processing and before fragmentation: it appends
	// the transformed packet body to dst and returns the extended slice,
	// so output processing need not allocate. Ownership rule: dst is a
	// pooled buffer that belongs to the stack; the hook must only append
	// to it and must not retain the returned slice past the call — the
	// stack recycles the buffer as soon as the packet's fragments have
	// been copied out for transmission.
	OutputHook(dst []byte, h *Header, payload []byte) ([]byte, error)
	// InputHook inverts OutputHook after reassembly and before
	// dispatch. Returning an error drops the packet.
	InputHook(h *Header, payload []byte) ([]byte, error)
}

// StackStats is a snapshot of stack activity.
type StackStats struct {
	PacketsOut     uint64
	FragmentsOut   uint64
	PacketsIn      uint64
	Reassembled    uint64
	Delivered      uint64
	Forwarded      uint64
	DroppedTTL     uint64
	DroppedBadPkt  uint64
	DroppedNoProto uint64
	DroppedHook    uint64
	// HookDrops breaks DroppedHook down by core.DropReason (the shared
	// drop taxonomy), so a stack-level hook drop carries the same label
	// the endpoint's own counters use. Hook errors that don't map to a
	// known reason are counted under DropNone ("other").
	HookDrops [core.NumDropReasons]uint64
}

// stackCounters is the live form of StackStats: independent atomics so
// per-packet accounting never serialises concurrent Output and Input
// calls on the stack mutex.
type stackCounters struct {
	packetsOut     atomic.Uint64
	fragmentsOut   atomic.Uint64
	packetsIn      atomic.Uint64
	reassembled    atomic.Uint64
	delivered      atomic.Uint64
	forwarded      atomic.Uint64
	droppedTTL     atomic.Uint64
	droppedBadPkt  atomic.Uint64
	droppedNoProto atomic.Uint64
	droppedHook    atomic.Uint64
	hookDrops      [core.NumDropReasons]atomic.Uint64
}

// dropHook counts one security-hook drop, classified by the shared
// DropReason taxonomy.
func (c *stackCounters) dropHook(err error) {
	c.droppedHook.Add(1)
	c.hookDrops[core.DropReasonOf(err)].Add(1)
}

// Stack is a minimal IPv4 host stack: one address, one link, a protocol
// dispatch table, fragmentation/reassembly, and the two security hook
// points.
type Stack struct {
	addr Addr
	mtu  int
	link LinkFunc
	hook SecurityHook
	now  func() time.Time

	// Forwarding enables router behaviour for packets not addressed to
	// this host.
	Forwarding bool

	nextID atomic.Uint32
	stats  stackCounters

	// outBufs recycles the buffers handed to the hook on the output path
	// (see the ownership rule on SecurityHook.OutputHook).
	outBufs sync.Pool

	mu       sync.Mutex
	reasm    *Reassembler
	handlers map[uint8]ProtocolHandler
}

// StackConfig configures a Stack.
type StackConfig struct {
	Addr Addr
	// MTU of the attached link; default 1500 (Ethernet).
	MTU int
	// Link transmits marshalled packets. Required.
	Link LinkFunc
	// Hook is the optional security hook (FBS).
	Hook SecurityHook
	// Now supplies time for reassembly timeouts; default time.Now.
	Now func() time.Time
}

// NewStack builds a host stack.
func NewStack(cfg StackConfig) (*Stack, error) {
	if cfg.Link == nil {
		return nil, fmt.Errorf("ip: StackConfig.Link is required")
	}
	if cfg.MTU <= 0 {
		cfg.MTU = 1500
	}
	if cfg.MTU < HeaderMinLen+8 {
		return nil, fmt.Errorf("ip: MTU %d too small", cfg.MTU)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Stack{
		addr:     cfg.Addr,
		mtu:      cfg.MTU,
		link:     cfg.Link,
		hook:     cfg.Hook,
		now:      cfg.Now,
		reasm:    NewReassembler(0),
		handlers: make(map[uint8]ProtocolHandler),
	}
	s.outBufs.New = func() any { b := make([]byte, 0, 2048); return &b }
	return s, nil
}

// Addr returns the stack's address.
func (s *Stack) Addr() Addr { return s.addr }

// Hook returns the installed security hook (nil for a stock stack).
func (s *Stack) Hook() SecurityHook { return s.hook }

// MTU returns the link MTU.
func (s *Stack) MTU() int { return s.mtu }

// Handle registers the handler for an IP protocol number.
func (s *Stack) Handle(proto uint8, h ProtocolHandler) {
	s.mu.Lock()
	s.handlers[proto] = h
	s.mu.Unlock()
}

// Stats returns a snapshot of the counters, each read atomically.
func (s *Stack) Stats() StackStats {
	c := &s.stats
	out := StackStats{
		PacketsOut:     c.packetsOut.Load(),
		FragmentsOut:   c.fragmentsOut.Load(),
		PacketsIn:      c.packetsIn.Load(),
		Reassembled:    c.reassembled.Load(),
		Delivered:      c.delivered.Load(),
		Forwarded:      c.forwarded.Load(),
		DroppedTTL:     c.droppedTTL.Load(),
		DroppedBadPkt:  c.droppedBadPkt.Load(),
		DroppedNoProto: c.droppedNoProto.Load(),
		DroppedHook:    c.droppedHook.Load(),
	}
	for i := range out.HookDrops {
		out.HookDrops[i] = c.hookDrops[i].Load()
	}
	return out
}

// Output sends payload to dst with the given protocol. Setting df sets
// the Don't Fragment flag. The path follows 4.4BSD ip_output's three
// parts with the security hook between parts one and two, so FBS
// processing "receives the benefits of IP fragmentation and reassembly"
// (Section 7.2).
func (s *Stack) Output(proto uint8, dst Addr, payload []byte, df bool) error {
	// Part 1: header construction, option processing, route selection
	// (single-homed: the one link).
	h := Header{
		ID:       uint16(s.nextID.Add(1)),
		TTL:      64,
		Protocol: proto,
		Src:      s.addr,
		Dst:      dst,
	}
	if df {
		h.Flags |= FlagDF
	}
	// Security hook: FBS send processing. The hook seals into a pooled
	// buffer the stack owns; the buffer is recycled after the fragments
	// below have been copied into their frames.
	if s.hook != nil {
		hookBuf := s.outBufs.Get().(*[]byte)
		defer s.outBufs.Put(hookBuf)
		sealed, err := s.hook.OutputHook((*hookBuf)[:0], &h, payload)
		if err != nil {
			s.stats.dropHook(err)
			return fmt.Errorf("ip: output hook: %w", err)
		}
		*hookBuf = sealed
		payload = sealed
	}
	// Part 2: fragmentation.
	frags, err := Fragment(Packet{Header: h, Payload: payload}, s.mtu)
	if err != nil {
		return err
	}
	// Part 3: transmit on the chosen interface. All frames of the packet
	// are marshalled into one buffer; receivers may retain frames, so
	// the buffer is fresh per packet, not pooled.
	wire := 0
	for _, f := range frags {
		wire += f.Header.HeaderLen() + len(f.Payload)
	}
	frames := make([]byte, 0, wire)
	for _, f := range frags {
		off := len(frames)
		frames, err = f.Header.MarshalAppend(frames, f.Payload)
		if err != nil {
			return err
		}
		if err := s.link(frames[off:]); err != nil {
			return err
		}
		s.stats.fragmentsOut.Add(1)
	}
	s.stats.packetsOut.Add(1)
	return nil
}

// Input accepts one received frame. The path follows 4.4BSD ip_input's
// three parts with the security hook between reassembly and dispatch.
func (s *Stack) Input(frame []byte) {
	s.stats.packetsIn.Add(1)
	// Part 1: validation and the forwarding decision.
	h, payload, err := Unmarshal(frame)
	if err != nil {
		s.stats.droppedBadPkt.Add(1)
		return
	}
	if h.Dst != s.addr {
		if s.Forwarding {
			s.forward(h, payload)
		} else {
			s.stats.droppedBadPkt.Add(1)
		}
		return
	}
	// Part 2: reassembly (local delivery only, as in BSD).
	s.mu.Lock()
	whole, err := s.reasm.Add(Packet{Header: *h, Payload: payload}, s.now())
	s.mu.Unlock()
	if err != nil || whole == nil {
		return
	}
	if h.FragOffset != 0 || h.Flags&FlagMF != 0 {
		// The final fragment of a train just completed reassembly.
		s.stats.reassembled.Add(1)
	}
	// Security hook: FBS receive processing.
	body := whole.Payload
	if s.hook != nil {
		body, err = s.hook.InputHook(&whole.Header, body)
		if err != nil {
			s.stats.dropHook(err)
			return
		}
	}
	// Part 3: dispatch to the transport protocol.
	s.mu.Lock()
	handler := s.handlers[whole.Header.Protocol]
	s.mu.Unlock()
	if handler == nil {
		s.stats.droppedNoProto.Add(1)
		return
	}
	handler(&whole.Header, body)
	s.stats.delivered.Add(1)
}

// forward re-emits a transit packet. FBS is end-to-end: "a forwarding
// router also will not see anything strange about FBS processed IP
// packets" — the hook is not consulted here.
func (s *Stack) forward(h *Header, payload []byte) {
	if h.TTL <= 1 {
		s.stats.droppedTTL.Add(1)
		return
	}
	fh := *h
	fh.TTL--
	frags, err := Fragment(Packet{Header: fh, Payload: payload}, s.mtu)
	if err != nil {
		s.stats.droppedBadPkt.Add(1)
		return
	}
	for _, f := range frags {
		frame, err := f.Header.Marshal(f.Payload)
		if err != nil {
			return
		}
		if s.link(frame) != nil {
			return
		}
	}
	s.stats.forwarded.Add(1)
}

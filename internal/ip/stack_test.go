package ip

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// wire connects two stacks directly: frames transmitted by one are input
// to the other.
type wire struct {
	mu    sync.Mutex
	peers []*Stack
}

func (w *wire) sender(self Addr) LinkFunc {
	return LinkFunc(func(frame []byte) error {
		w.mu.Lock()
		peers := append([]*Stack(nil), w.peers...)
		w.mu.Unlock()
		for _, p := range peers {
			if p.Addr() != self {
				p.Input(append([]byte(nil), frame...))
			}
		}
		return nil
	})
}

func TestStackDelivery(t *testing.T) {
	w := &wire{}
	a := mustAddr(t, "10.0.0.1")
	b := mustAddr(t, "10.0.0.2")
	sa, err := NewStack(StackConfig{Addr: a, Link: w.sender(a)})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStack(StackConfig{Addr: b, Link: w.sender(b)})
	if err != nil {
		t.Fatal(err)
	}
	w.peers = []*Stack{sa, sb}

	var got []byte
	sb.Handle(ProtoUDP, func(h *Header, payload []byte) {
		if h.Src != a {
			t.Errorf("src = %v", h.Src)
		}
		got = append([]byte(nil), payload...)
	})
	want := []byte("hello across the segment")
	if err := sa.Output(ProtoUDP, b, want, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
	if sb.Stats().Delivered != 1 {
		t.Fatal("delivery not counted")
	}
}

func TestStackFragmentsLargePackets(t *testing.T) {
	w := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa, _ := NewStack(StackConfig{Addr: a, Link: w.sender(a), MTU: 576})
	sb, _ := NewStack(StackConfig{Addr: b, Link: w.sender(b), MTU: 576})
	w.peers = []*Stack{sa, sb}
	var got []byte
	sb.Handle(ProtoUDP, func(_ *Header, payload []byte) { got = payload })
	want := make([]byte, 4000)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if err := sa.Output(ProtoUDP, b, want, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fragmented payload mismatch")
	}
	if st := sa.Stats(); st.FragmentsOut < 8 {
		t.Fatalf("FragmentsOut = %d", st.FragmentsOut)
	}
	if st := sb.Stats(); st.Reassembled != 1 {
		t.Fatalf("Reassembled = %d", st.Reassembled)
	}
}

func TestStackForwarding(t *testing.T) {
	// a --- router --- b on two "segments" emulated by selective wires.
	a, r, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.254"), mustAddr(t, "10.0.1.1")
	var sa, sr, sb *Stack
	// a's link reaches only the router; the router's link reaches both.
	la := LinkFunc(func(f []byte) error { sr.Input(append([]byte(nil), f...)); return nil })
	lr := LinkFunc(func(f []byte) error {
		c := append([]byte(nil), f...)
		h, _, err := Unmarshal(c)
		if err != nil {
			return err
		}
		if h.Dst == b {
			sb.Input(c)
		} else {
			sa.Input(c)
		}
		return nil
	})
	lb := LinkFunc(func(f []byte) error { sr.Input(append([]byte(nil), f...)); return nil })
	sa, _ = NewStack(StackConfig{Addr: a, Link: la})
	sr, _ = NewStack(StackConfig{Addr: r, Link: lr})
	sr.Forwarding = true
	sb, _ = NewStack(StackConfig{Addr: b, Link: lb})
	var got []byte
	sb.Handle(ProtoUDP, func(_ *Header, p []byte) { got = p })
	if err := sa.Output(ProtoUDP, b, []byte("via router"), false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("via router")) {
		t.Fatalf("got %q", got)
	}
	if sr.Stats().Forwarded != 1 {
		t.Fatal("forward not counted")
	}
}

func TestStackTTLExpiry(t *testing.T) {
	r := mustAddr(t, "10.0.0.254")
	var sr *Stack
	loop := LinkFunc(func(f []byte) error { sr.Input(append([]byte(nil), f...)); return nil })
	sr, _ = NewStack(StackConfig{Addr: r, Link: loop})
	sr.Forwarding = true
	// A transit packet with TTL 1 must be dropped, not forwarded.
	h := Header{TTL: 1, Protocol: ProtoUDP, Src: Addr{1, 1, 1, 1}, Dst: Addr{2, 2, 2, 2}}
	frame, _ := h.Marshal([]byte("dying"))
	sr.Input(frame)
	if st := sr.Stats(); st.DroppedTTL != 1 || st.Forwarded != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStackDropsGarbage(t *testing.T) {
	a := mustAddr(t, "10.0.0.1")
	s, _ := NewStack(StackConfig{Addr: a, Link: LinkFunc(func([]byte) error { return nil })})
	s.Input([]byte{1, 2, 3})
	s.Input(nil)
	if st := s.Stats(); st.DroppedBadPkt != 2 {
		t.Fatalf("DroppedBadPkt = %d", st.DroppedBadPkt)
	}
	// Unknown protocol.
	h := Header{TTL: 4, Protocol: 99, Dst: a}
	frame, _ := h.Marshal(nil)
	s.Input(frame)
	if st := s.Stats(); st.DroppedNoProto != 1 {
		t.Fatalf("DroppedNoProto = %d", st.DroppedNoProto)
	}
}

// fbsWorld builds the PKI surroundings for FBS-enabled stacks.
type fbsWorld struct {
	ca  *cert.Authority
	dir *cert.StaticDirectory
	ver *cert.Verifier
	clk *core.SimClock
}

var (
	ipCAOnce sync.Once
	ipCA     *cert.Authority
)

func newFBSWorld(t testing.TB) *fbsWorld {
	t.Helper()
	ipCAOnce.Do(func() {
		ca, err := cert.NewAuthority("ip-root", 512)
		if err != nil {
			t.Fatal(err)
		}
		ipCA = ca
	})
	return &fbsWorld{
		ca:  ipCA,
		dir: cert.NewStaticDirectory(),
		ver: &cert.Verifier{CAKey: ipCA.PublicKey(), CA: "ip-root"},
		clk: core.NewSimClock(time.Date(2026, 7, 4, 9, 0, 0, 0, time.UTC)),
	}
}

// publish mints an identity and certificate for a host that may not run
// FBS itself (senders still need the peer's public value).
func (w *fbsWorld) publish(t testing.TB, addr Addr) *principal.Identity {
	t.Helper()
	id, err := principal.NewIdentity(Principal(addr), cryptolib.TestGroup)
	if err != nil {
		t.Fatal(err)
	}
	c, err := w.ca.Issue(id, w.clk.Now().Add(-time.Hour), w.clk.Now().Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	w.dir.Publish(c)
	return id
}

func (w *fbsWorld) fbsStack(t testing.TB, wr *wire, addr Addr, secret SecretPolicy) *Stack {
	t.Helper()
	id := w.publish(t, addr)
	hook, err := NewFBSHook(core.Config{
		Identity:  id,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clk,
	}, secret)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewStack(StackConfig{Addr: addr, Link: wr.sender(addr), Hook: hook, Now: w.clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFBSOverIPEndToEnd(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	sb := w.fbsStack(t, wr, b, AlwaysSecret)
	wr.peers = []*Stack{sa, sb}

	var got []byte
	sb.Handle(ProtoUDP, func(_ *Header, p []byte) { got = p })
	// UDP-shaped payload: ports then data.
	payload := []byte{0x04, 0x00, 0x00, 0x35, 'q', 'u', 'e', 'r', 'y'}
	if err := sa.Output(ProtoUDP, b, payload, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %x want %x", got, payload)
	}
}

// A stock stack cannot read traffic from an FBS stack: the payload on the
// wire is the FBS header plus ciphertext.
func TestFBSOverIPOpaqueToStockStack(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	w.publish(t, b) // the receiver has an identity even though its stack is stock
	var sniffed []byte
	stock, _ := NewStack(StackConfig{Addr: b, Link: wr.sender(b)})
	stock.Handle(ProtoUDP, func(_ *Header, p []byte) { sniffed = p })
	wr.peers = []*Stack{sa, stock}
	secretBody := []byte{0x04, 0x00, 0x00, 0x35, 's', 'e', 'c', 'r', 'e', 't', '!', '!'}
	if err := sa.Output(ProtoUDP, b, secretBody, false); err != nil {
		t.Fatal(err)
	}
	if sniffed == nil {
		t.Fatal("stock stack received nothing")
	}
	if bytes.Contains(sniffed, []byte("secret")) {
		t.Fatal("payload visible to non-FBS receiver")
	}
	if len(sniffed) < core.HeaderSize {
		t.Fatal("FBS header missing on the wire")
	}
}

// FBS processing must survive IP fragmentation: the hook runs before
// fragmentation on output and after reassembly on input (Section 7.2).
func TestFBSOverIPWithFragmentation(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	sb := w.fbsStack(t, wr, b, AlwaysSecret)
	wr.peers = []*Stack{sa, sb}
	var got []byte
	sb.Handle(ProtoTCP, func(_ *Header, p []byte) { got = p })
	big := make([]byte, 6000)
	for i := range big {
		big[i] = byte(i)
	}
	big[0], big[1], big[2], big[3] = 0x10, 0x01, 0x00, 0x50 // "ports"
	if err := sa.Output(ProtoTCP, b, big, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("fragmented FBS payload mismatch")
	}
	if sa.Stats().FragmentsOut < 4 {
		t.Fatalf("expected fragmentation, FragmentsOut = %d", sa.Stats().FragmentsOut)
	}
}

// TestSealedPacketFragmentsReassemblesOpens drives a sealed datagram
// through the fragmentation machinery directly: Fragment splits the
// FBS-header-plus-ciphertext body at a small MTU, the Reassembler puts
// it back together, and the peer's input hook opens the result byte-
// for-byte. The MAC doubles as the oracle: any slicing or reassembly
// error in the sealed bytes fails verification.
func TestSealedPacketFragmentsReassemblesOpens(t *testing.T) {
	w := newFBSWorld(t)
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	mkHook := func(addr Addr) *FBSHook {
		h, err := NewFBSHook(core.Config{
			Identity:  w.publish(t, addr),
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clk,
		}, AlwaysSecret)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	hookA, hookB := mkHook(a), mkHook(b)

	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	payload[0], payload[1], payload[2], payload[3] = 0x10, 0x01, 0x00, 0x50 // "ports"
	h := Header{ID: 99, TTL: 64, Protocol: ProtoUDP, Src: a, Dst: b}
	sealed, err := hookA.OutputHook(nil, &h, payload)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := Fragment(Packet{Header: h, Payload: sealed}, 576)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 2 {
		t.Fatalf("sealed packet produced %d fragments at MTU 576", len(frags))
	}
	r := NewReassembler(0)
	var whole *Packet
	for _, f := range frags {
		if whole, err = r.Add(f, w.clk.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if whole == nil {
		t.Fatal("fragment train did not complete")
	}
	opened, err := hookB.InputHook(&whole.Header, whole.Payload)
	if err != nil {
		t.Fatalf("open after reassembly: %v", err)
	}
	if !bytes.Equal(opened, payload) {
		t.Fatal("payload mismatch after seal/fragment/reassemble/open")
	}
}

// TestFBSSealedDFPaddingGrowth is the satellite regression for DF
// sizing: sealing grows a packet by the 36-byte header AND up to a
// cipher block of PKCS#7 padding. A DF payload sized to exactly fit
// the MTU if only the header were added (the naive accounting) still
// overflows once padding lands, and must surface ErrNeedsFragmentation
// rather than an over-MTU frame; sized with core.SealOverhead it fits.
func TestFBSSealedDFPaddingGrowth(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	sb := w.fbsStack(t, wr, b, AlwaysSecret)
	wr.peers = []*Stack{sa, sb}
	var delivered int
	sb.Handle(ProtoUDP, func(_ *Header, _ []byte) { delivered++ })
	mtu := sa.MTU()

	// Exact fit under header-only accounting, block-aligned so the
	// cipher pads a full extra block: the sealed packet exceeds the MTU.
	over := make([]byte, (mtu-HeaderMinLen-core.HeaderSize)&^7)
	over[0], over[1], over[2], over[3] = 0x10, 0x01, 0x00, 0x50
	if err := sa.Output(ProtoUDP, b, over, true); err == nil {
		t.Fatal("DF packet that outgrew the MTU under padding was sent")
	} else if !errors.Is(err, ErrNeedsFragmentation) {
		t.Fatalf("err = %v, want ErrNeedsFragmentation", err)
	}
	if out := sa.Stats().FragmentsOut; out != 0 {
		t.Fatalf("over-MTU DF packet put %d frames on the wire", out)
	}
	// Sized against the true worst-case overhead, the same DF packet
	// fits in one fragment.
	fit := make([]byte, (mtu-HeaderMinLen-core.SealOverhead)&^7)
	fit[0], fit[1], fit[2], fit[3] = 0x10, 0x01, 0x00, 0x50
	if err := sa.Output(ProtoUDP, b, fit, true); err != nil {
		t.Fatal(err)
	}
	if out := sa.Stats().FragmentsOut; out != 1 {
		t.Fatalf("FragmentsOut = %d, want 1 unfragmented frame", out)
	}
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

// Different conversations (distinct 5-tuples) land in distinct flows with
// distinct sfls under the Figure 7 policy.
func TestFBSOverIPFlowSeparation(t *testing.T) {
	w := newFBSWorld(t)
	wr := &wire{}
	a, b := mustAddr(t, "10.0.0.1"), mustAddr(t, "10.0.0.2")
	sa := w.fbsStack(t, wr, a, AlwaysSecret)
	w.publish(t, b)
	// Receiver is a stock stack that records raw FBS payloads.
	var sfls []core.SFL
	stock, _ := NewStack(StackConfig{Addr: b, Link: wr.sender(b)})
	stock.Handle(ProtoUDP, func(_ *Header, p []byte) {
		var h core.Header
		if _, err := h.Decode(p); err == nil {
			sfls = append(sfls, h.SFL)
		}
	})
	wr.peers = []*Stack{sa, stock}
	mk := func(srcPort, dstPort uint16) []byte {
		return []byte{byte(srcPort >> 8), byte(srcPort), byte(dstPort >> 8), byte(dstPort), 'd'}
	}
	sa.Output(ProtoUDP, b, mk(1000, 53), false)
	sa.Output(ProtoUDP, b, mk(1000, 53), false) // same conversation
	sa.Output(ProtoUDP, b, mk(2000, 53), false) // different source port
	if len(sfls) != 3 {
		t.Fatalf("captured %d FBS headers", len(sfls))
	}
	if sfls[0] != sfls[1] {
		t.Fatal("same 5-tuple split across flows")
	}
	if sfls[0] == sfls[2] {
		t.Fatal("different 5-tuples merged into one flow")
	}
}

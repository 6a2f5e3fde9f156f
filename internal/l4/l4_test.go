package l4

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"fbs/internal/ip"
)

var (
	srcA = ip.Addr{10, 0, 0, 1}
	dstA = ip.Addr{10, 0, 0, 2}
)

func TestUDPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := UDPHeader{SrcPort: sp, DstPort: dp}
		b, err := h.Marshal(payload, srcA, dstA)
		if err != nil {
			return false
		}
		back, body, err := UnmarshalUDP(b, srcA, dstA)
		if err != nil {
			return false
		}
		return back.SrcPort == sp && back.DstPort == dp && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPChecksumDetectsCorruption(t *testing.T) {
	h := UDPHeader{SrcPort: 1000, DstPort: 53}
	b, _ := h.Marshal([]byte("query"), srcA, dstA)
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x01
		if _, _, err := UnmarshalUDP(c, srcA, dstA); err == nil {
			// A flip in the length field could still parse if it
			// shortens consistently — but the checksum covers length
			// via the pseudo-header, so nothing should pass.
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
	// Wrong pseudo-header (different host) must fail too.
	if _, _, err := UnmarshalUDP(b, srcA, ip.Addr{9, 9, 9, 9}); err == nil {
		t.Fatal("wrong destination address accepted")
	}
}

func TestUDPNoChecksum(t *testing.T) {
	h := UDPHeader{SrcPort: 1, DstPort: 2}
	b, _ := h.Marshal([]byte("x"), ip.Addr{}, ip.Addr{})
	back, body, err := UnmarshalUDP(b, srcA, dstA) // addrs irrelevant without checksum
	if err != nil || back.Checksum != 0 || !bytes.Equal(body, []byte("x")) {
		t.Fatalf("checksumless UDP failed: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		h := TCPHeader{SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Flags: flags & 0x1f, Window: win}
		b, err := h.Marshal(payload, srcA, dstA)
		if err != nil {
			return false
		}
		back, body, err := UnmarshalTCP(b, srcA, dstA)
		if err != nil {
			return false
		}
		return back.SrcPort == sp && back.DstPort == dp && back.Seq == seq &&
			back.Ack == ack && back.Flags == flags&0x1f && back.Window == win &&
			bytes.Equal(body, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	h := TCPHeader{SrcPort: 80, DstPort: 4242, Seq: 1, Ack: 2, Flags: TCPAck | TCPPsh, Window: 8192}
	b, _ := h.Marshal([]byte("segment data"), srcA, dstA)
	for i := 0; i < len(b); i++ {
		c := append([]byte(nil), b...)
		c[i] ^= 0x80
		if _, _, err := UnmarshalTCP(c, srcA, dstA); err == nil {
			t.Fatalf("byte flip at %d accepted", i)
		}
	}
}

func TestTCPTruncated(t *testing.T) {
	if _, _, err := UnmarshalTCP(make([]byte, 10), srcA, dstA); err == nil {
		t.Fatal("truncated segment accepted")
	}
}

// TestMaxSegmentData reproduces the tcp_output bug and its fix (Section
// 7.2): with the FBS header unaccounted for, a maximal segment plus FBS
// header exceeds the MTU and, with DF set, is unsendable.
func TestMaxSegmentData(t *testing.T) {
	const mtu = 1500
	const fbsHeaderLen = 36
	// Stock calculation (no FBS): exactly fills the MTU.
	stock := MaxSegmentData(mtu, 0, 0)
	if got := ip.HeaderMinLen + TCPHeaderLen + stock; got != mtu {
		t.Fatalf("stock exact-fit = %d, want %d", got, mtu)
	}
	// The bug: inserting the FBS header overflows the MTU → DF packet
	// needs fragmentation.
	over := ip.HeaderMinLen + TCPHeaderLen + fbsHeaderLen + stock
	if over <= mtu {
		t.Fatal("test premise broken")
	}
	p := ip.Packet{
		Header:  ip.Header{Flags: ip.FlagDF, TTL: 64, Protocol: ip.ProtoTCP},
		Payload: make([]byte, TCPHeaderLen+fbsHeaderLen+stock),
	}
	if _, err := ip.Fragment(p, mtu); err != ip.ErrNeedsFragmentation {
		t.Fatalf("unfixed sizing did not trip DF: %v", err)
	}
	// The fix: include the FBS header size in the calculation.
	fixed := MaxSegmentData(mtu, 0, fbsHeaderLen)
	if got := ip.HeaderMinLen + TCPHeaderLen + fbsHeaderLen + fixed; got != mtu {
		t.Fatalf("fixed exact-fit = %d, want %d", got, mtu)
	}
	// With options the option padding is accounted too.
	withOpt := MaxSegmentData(mtu, 3, fbsHeaderLen) // pads to 4
	if got := ip.HeaderMinLen + 4 + TCPHeaderLen + fbsHeaderLen + withOpt; got != mtu {
		t.Fatalf("optioned exact-fit = %d, want %d", got, mtu)
	}
	if MaxSegmentData(50, 40, 36) != 0 {
		t.Fatal("negative segment size not clamped")
	}
}

func TestPortAllocatorBasic(t *testing.T) {
	now := time.Now()
	p, err := NewPortAllocator(5000, 5003, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint16]bool)
	for i := 0; i < 4; i++ {
		port, err := p.Alloc(now)
		if err != nil {
			t.Fatal(err)
		}
		if port < 5000 || port > 5003 || seen[port] {
			t.Fatalf("bad port %d", port)
		}
		seen[port] = true
	}
	if _, err := p.Alloc(now); err == nil {
		t.Fatal("exhausted allocator handed out a port")
	}
	p.Release(5001, now)
	if got, err := p.Alloc(now); err != nil || got != 5001 {
		t.Fatalf("Alloc after release = %d, %v", got, err)
	}
	if len(p.inUse) != 4 {
		t.Fatalf("in use = %d", len(p.inUse))
	}
}

// TestPortAllocatorReuseWait checks the Section 7.1 countermeasure: a
// released port stays quarantined for THRESHOLD so that the flow keyed to
// it dies before the port can change hands.
func TestPortAllocatorReuseWait(t *testing.T) {
	const threshold = 10 * time.Minute
	now := time.Now()
	p, err := NewPortAllocator(6000, 6001, threshold)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Alloc(now)
	b, _ := p.Alloc(now)
	p.Release(a, now)
	p.Release(b, now)
	// Inside the quarantine: no ports available at all.
	if _, err := p.Alloc(now.Add(threshold - time.Second)); err == nil {
		t.Fatal("port reallocated inside THRESHOLD")
	}
	// After the quarantine they flow again.
	if _, err := p.Alloc(now.Add(threshold + time.Second)); err != nil {
		t.Fatalf("port not released after THRESHOLD: %v", err)
	}
}

func TestPortAllocatorValidation(t *testing.T) {
	if _, err := NewPortAllocator(0, 10, 0); err == nil {
		t.Fatal("zero first port accepted")
	}
	if _, err := NewPortAllocator(10, 5, 0); err == nil {
		t.Fatal("inverted range accepted")
	}
	p, _ := NewPortAllocator(7000, 7001, 0)
	p.Release(7000, time.Now()) // releasing an unallocated port is a no-op
	if len(p.inUse) != 0 {
		t.Fatal("phantom allocation")
	}
}

// Decoder fuzz: arbitrary bytes must never panic the UDP/TCP parsers.
func TestL4DecodersNeverPanic(t *testing.T) {
	f := func(b []byte) bool {
		UnmarshalUDP(b, srcA, dstA)
		UnmarshalTCP(b, srcA, dstA)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

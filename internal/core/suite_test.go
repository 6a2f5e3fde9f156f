package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Suite seam tests: the registry, the wire-algorithm mapping, per-flow
// suite pinning, configuration-time nibble validation, and — the
// security property the seam must not weaken — the algorithm-downgrade
// tamper matrix across every registered suite. The core package runs
// under -race in CI, so the matrix doubles as a race probe of the
// per-suite counters.

func TestSuiteRegistry(t *testing.T) {
	want := map[CipherID]struct {
		name string
		aead bool
	}{
		CipherNone:             {"none", false},
		CipherDES:              {"DES", false},
		Cipher3DES:             {"3DES", false},
		CipherAES128GCM:        {"AES-128-GCM", true},
		CipherChaCha20Poly1305: {"ChaCha20-Poly1305", true},
	}
	if got := len(Suites()); got != len(want) {
		t.Fatalf("registry holds %d suites, want %d", got, len(want))
	}
	for id, w := range want {
		s := SuiteByID(id)
		if s == nil {
			t.Fatalf("suite %d not registered", id)
		}
		if s.ID() != id || s.Name() != w.name || s.AEAD() != w.aead {
			t.Errorf("suite %d: got (%v, %q, aead=%v), want (%v, %q, aead=%v)",
				id, s.ID(), s.Name(), s.AEAD(), id, w.name, w.aead)
		}
		if w.aead {
			if s.Overhead() != HeaderSize {
				t.Errorf("%s: AEAD overhead %d, want exact-length bodies (%d)", w.name, s.Overhead(), HeaderSize)
			}
		} else if s.Overhead() != SealOverhead {
			t.Errorf("%s: legacy overhead %d, want %d", w.name, s.Overhead(), SealOverhead)
		}
	}
	// The unassigned nibbles answer nil, and out-of-range IDs never index
	// the registry.
	for _, id := range []CipherID{3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 200} {
		if SuiteByID(id) != nil {
			t.Errorf("cipher %d unexpectedly registered", id)
		}
	}
}

func TestSuiteWireAlg(t *testing.T) {
	// Legacy suites carry the configured MAC/mode through to the wire;
	// AEAD suites force the intrinsic MAC id and a zero mode nibble no
	// matter what the config says.
	for _, s := range Suites() {
		mac, mode := s.WireAlg(cryptolib.MACHMACSHA1, cryptolib.CFB)
		if s.AEAD() {
			if mac != cryptolib.MACAEAD || mode != 0 {
				t.Errorf("%s: WireAlg = (%v, %v), want (MACAEAD, 0)", s.Name(), mac, mode)
			}
		} else if mac != cryptolib.MACHMACSHA1 || mode != cryptolib.CFB {
			t.Errorf("%s: WireAlg = (%v, %v), want pass-through", s.Name(), mac, mode)
		}
	}
}

func TestSuiteNonceDiscipline(t *testing.T) {
	// The AEAD nonce is confounder | timestamp | low 32 bits of sfl, all
	// big-endian; the legacy IV duplicates the confounder.
	h := Header{SFL: 0x11223344AABBCCDD, Confounder: 0x01020304, Timestamp: 0x0A0B0C0D}
	if n, want := aeadNonce(h), [12]byte{1, 2, 3, 4, 0x0A, 0x0B, 0x0C, 0x0D, 0xAA, 0xBB, 0xCC, 0xDD}; n != want {
		t.Errorf("AEAD nonce %x, want %x", n, want)
	}
	if iv, want := h.iv(), [8]byte{1, 2, 3, 4, 1, 2, 3, 4}; iv != want {
		t.Errorf("legacy IV %x, want duplicated confounder %x", iv, want)
	}
}

func TestConfigAlgorithmRange(t *testing.T) {
	// The 4-bit nibble packing satellite: IDs that cannot ride the packed
	// algorithm byte, or that name no registered suite, fail NewEndpoint
	// with ErrAlgorithmRange instead of silently truncating on the wire.
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	tr, err := net.Attach("range", 16)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Identity:  w.principal(t, "range"),
		Transport: tr,
		Directory: w.dir,
		Verifier:  w.ver,
		Clock:     w.clock,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"cipher beyond nibble", func(c *Config) { c.Cipher = 0x10 }},
		{"mode beyond nibble", func(c *Config) { c.Mode = 0x10 }},
		{"unregistered cipher", func(c *Config) { c.Cipher = 7 }},
		{"legacy with unknown MAC", func(c *Config) { c.Cipher = CipherDES; c.MAC = cryptolib.MACID(9) }},
		{"legacy with unimplemented mode", func(c *Config) { c.Cipher = CipherDES; c.Mode = cryptolib.Mode(7) }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewEndpoint(cfg); !errors.Is(err, ErrAlgorithmRange) {
			t.Errorf("%s: err = %v, want ErrAlgorithmRange", tc.name, err)
		}
	}
	// AEAD suites ignore the configured MAC/mode entirely (WireAlg
	// overrides them), so nibble-respecting values pass.
	cfg := base
	cfg.Cipher = CipherAES128GCM
	cfg.MAC = cryptolib.MACHMACSHA1
	ep, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatalf("AEAD config rejected: %v", err)
	}
	ep.Close()
}

// TestSuiteRoundTripMatrix sends secret and cleartext datagrams under
// every registered suite and checks the per-suite counters on both ends.
func TestSuiteRoundTripMatrix(t *testing.T) {
	for _, s := range Suites() {
		if s.ID() == CipherNone {
			continue // cannot carry secret traffic
		}
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			w := newWorld(t)
			a, b, _ := endpointPair(t, w, func(c *Config) { c.Cipher = s.ID() })
			for _, secret := range []bool{true, false} {
				payload := []byte("suite matrix payload for " + s.Name())
				if err := a.SendTo("bob", payload, secret); err != nil {
					t.Fatal(err)
				}
				got, err := b.Receive()
				if err != nil {
					t.Fatalf("secret=%v: %v", secret, err)
				}
				if !bytes.Equal(got.Payload, payload) {
					t.Fatalf("secret=%v: payload mismatch", secret)
				}
			}
			seals, opens := a.Snapshot().SuiteSeals, b.Snapshot().SuiteOpens
			if seals[s.ID()] != 2 || opens[s.ID()] != 2 {
				t.Errorf("suite counters: seals=%d opens=%d, want 2/2", seals[s.ID()], opens[s.ID()])
			}
		})
	}
}

// TestSuiteDowngradeTamperMatrix is the downgrade-tampering satellite:
// for every registered suite, flip the header's algorithm bytes every
// way an on-path attacker can, and require the typed rejection — never
// an accept. The algorithm prefix is authenticated (legacy MACs cover
// macInput; AEAD binds it as AAD), so cross-suite swaps must die with
// the right DropReason, not merely "some error".
func TestSuiteDowngradeTamperMatrix(t *testing.T) {
	const (
		offMACAlg     = 2
		offCipherMode = 3
	)
	for _, s := range Suites() {
		if s.ID() == CipherNone {
			continue
		}
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			w := newWorld(t)
			a, b, _ := endpointPair(t, w, func(c *Config) { c.Cipher = s.ID() })
			// 18 bytes: the AEAD body is deliberately not a multiple of
			// the legacy block size, so AEAD→legacy swaps are expected to
			// die in the cipher (DropDecrypt) while aligned swaps die in
			// the authenticator (DropBadMAC).
			payload := []byte("downgrade probe 18")
			sealed, err := a.Seal(transport.Datagram{
				Source: "alice", Destination: "bob", Payload: payload,
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			open := func(wire []byte) error {
				_, err := b.Open(transport.Datagram{Source: "alice", Destination: "bob", Payload: wire})
				return err
			}
			mutate := func(f func(wire []byte)) []byte {
				wire := append([]byte(nil), sealed.Payload...)
				f(wire)
				return wire
			}
			// Sanity: the untampered datagram is accepted.
			if err := open(mutate(func([]byte) {})); err != nil {
				t.Fatalf("clean datagram rejected: %v", err)
			}

			// Unregistered cipher nibble → "no such algorithm".
			err = open(mutate(func(w []byte) { w[offCipherMode] = 0x70 | w[offCipherMode]&0x0F }))
			if !errors.Is(err, ErrAlgorithmUnknown) || DropReasonOf(err) != DropAlgorithm {
				t.Errorf("unregistered cipher: err=%v reason=%v, want ErrAlgorithmUnknown/DropAlgorithm", err, DropReasonOf(err))
			}

			// MAC byte structurally impossible for the named suite.
			err = open(mutate(func(w []byte) {
				if s.AEAD() {
					w[offMACAlg] = byte(cryptolib.MACPrefixMD5) // AEAD framing demands MACAEAD
				} else {
					w[offMACAlg] = 0x0B // beyond every implemented construction
				}
			}))
			if !errors.Is(err, ErrAlgorithmUnknown) || DropReasonOf(err) != DropAlgorithm {
				t.Errorf("impossible MAC byte: err=%v reason=%v, want ErrAlgorithmUnknown/DropAlgorithm", err, DropReasonOf(err))
			}

			// Cross-suite swap to every other registered suite, with
			// structurally valid bytes for the target: the authenticated
			// algorithm prefix forecloses the substitution.
			body := len(sealed.Payload) - HeaderSize
			for _, tgt := range Suites() {
				if tgt.ID() == s.ID() || tgt.ID() == CipherNone {
					continue
				}
				err := open(mutate(func(w []byte) {
					if tgt.AEAD() {
						w[offMACAlg] = byte(cryptolib.MACAEAD)
						w[offCipherMode] = byte(tgt.ID()) << 4
					} else {
						w[offMACAlg] = byte(cryptolib.MACPrefixMD5)
						w[offCipherMode] = byte(tgt.ID())<<4 | byte(cryptolib.CBC)
					}
				}))
				want, reason := error(ErrBadMAC), DropBadMAC
				if !tgt.AEAD() && body%cryptolib.BlockSize != 0 {
					want, reason = ErrDecrypt, DropDecrypt
				}
				if !errors.Is(err, want) || DropReasonOf(err) != reason {
					t.Errorf("swap %s→%s: err=%v reason=%v, want %v/%v",
						s.Name(), tgt.Name(), err, DropReasonOf(err), want, reason)
				}
			}

			// Downgrade to cipher "none" on an encrypted datagram: the
			// suite is registered and the header structurally valid, but
			// none cannot decrypt.
			err = open(mutate(func(w []byte) {
				w[offMACAlg] = byte(cryptolib.MACPrefixMD5)
				w[offCipherMode] = w[offCipherMode] & 0x0F
			}))
			if !errors.Is(err, ErrDecrypt) || DropReasonOf(err) != DropDecrypt {
				t.Errorf("none downgrade: err=%v reason=%v, want ErrDecrypt/DropDecrypt", err, DropReasonOf(err))
			}

			// Every tamper above landed in a typed drop bucket.
			drops := b.Snapshot().Drops
			if drops[DropAlgorithm] == 0 || drops[DropBadMAC]+drops[DropDecrypt] == 0 {
				t.Errorf("tamper drops not counted: %v", drops)
			}
		})
	}
}

// TestAEADConfounderCounter: AEAD flows must fill the confounder field
// with the flow's monotonic datagram counter — an AEAD nonce has to be
// unique under the flow key, and 32 random bits birthday-collide around
// 2^16 datagrams. Legacy flows keep drawing from the configured random
// source.
func TestAEADConfounderCounter(t *testing.T) {
	w := newWorld(t)
	a, b, _ := endpointPair(t, w, func(c *Config) { c.Cipher = CipherAES128GCM })
	flow := func(dstPort uint16) FlowID {
		return FlowID{Src: "alice", Dst: "bob", Proto: 17, SrcPort: 1234, DstPort: dstPort}
	}
	seal := func(id FlowID) Header {
		t.Helper()
		dg := transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("counter")}
		wire, err := a.SealAppend(nil, dg, &id, true)
		dg.Payload = wire
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		if _, err := h.Decode(dg.Payload); err != nil {
			t.Fatal(err)
		}
		// The receiver reassembles the nonce from the header alone — no
		// counter state — so every sealed datagram must still open.
		if _, err := b.Open(dg); err != nil {
			t.Fatalf("counter-confounder datagram rejected: %v", err)
		}
		return h
	}
	for i := 1; i <= 5; i++ {
		if h := seal(flow(80)); h.Confounder != uint32(i) {
			t.Fatalf("flow A datagram %d: confounder %d, want the flow counter %d", i, h.Confounder, i)
		}
	}
	// A second flow is a new key (new sfl), so its counter restarts at 1
	// without any nonce reuse.
	if h := seal(flow(443)); h.Confounder != 1 {
		t.Errorf("flow B first datagram: confounder %d, want 1", h.Confounder)
	}
	// The first flow resumes where it left off.
	if h := seal(flow(80)); h.Confounder != 6 {
		t.Errorf("flow A datagram 6: confounder %d, want 6", h.Confounder)
	}

	// Legacy suites still draw random confounders: three DES datagrams on
	// one flow must not carry the counter sequence 1,2,3.
	w2 := newWorld(t)
	da, db, _ := endpointPair(t, w2, func(c *Config) { c.Cipher = CipherDES })
	var confs [3]uint32
	for i := range confs {
		id := flow(80)
		dg := transport.Datagram{Source: "alice", Destination: "bob", Payload: []byte("legacy-rand")}
		wire, err := da.SealAppend(nil, dg, &id, true)
		dg.Payload = wire
		if err != nil {
			t.Fatal(err)
		}
		var h Header
		if _, err := h.Decode(dg.Payload); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Open(dg); err != nil {
			t.Fatal(err)
		}
		confs[i] = h.Confounder
	}
	if confs == [3]uint32{1, 2, 3} {
		t.Errorf("legacy DES confounders %v look like the AEAD counter, want random draws", confs)
	}
}

// nullMACForgery is what an adversary holding no key can write: a
// header claiming source src with cipher none, MAC null, an arbitrary
// sfl, a fresh timestamp and an all-zero MAC value.
func nullMACForgery(src, dst principal.Address, now time.Time, payload string) transport.Datagram {
	h := Header{Version: HeaderVersion, MAC: cryptolib.MACNull, Cipher: CipherNone,
		SFL: 0x5eed, Timestamp: TimestampOf(now)}
	return transport.Datagram{Source: src, Destination: dst, Payload: append(h.Encode(nil), payload...)}
}

// TestAEADAcceptCiphers: AcceptCiphers binds the AEAD suites, the open
// policy admits every registered suite, and no receiver accepts a
// null-MAC forgery unless it is itself the NOP configuration — with or
// without a cipher accept-set, legacy or AEAD.
func TestAEADAcceptCiphers(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(addr principal.Address, mutate func(*Config)) *Endpoint {
		tr, err := net.Attach(addr, 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Identity:  w.principal(t, addr),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	sender := mk("optin-sender", func(c *Config) { c.Cipher = CipherAES128GCM })
	cases := []struct {
		addr   principal.Address
		mutate func(*Config)
		accept bool
	}{
		// Naming the suite in AcceptCiphers admits it.
		{"optin-cipher", func(c *Config) { c.AcceptCiphers = []CipherID{CipherAES128GCM} }, true},
		// A cipher set that excludes the suite refuses it.
		{"cipher-excludes", func(c *Config) { c.AcceptCiphers = []CipherID{CipherDES} }, false},
		// Fully open policy admits every registered suite.
		{"open", nil, true},
	}
	for _, tc := range cases {
		rx := mk(tc.addr, tc.mutate)
		sealed, err := sender.Seal(transport.Datagram{
			Source: "optin-sender", Destination: tc.addr, Payload: []byte("optin"),
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		_, err = rx.Open(sealed)
		if tc.accept && err != nil {
			t.Errorf("%s: rejected, want accept: %v", tc.addr, err)
		}
		if !tc.accept {
			if !errors.Is(err, ErrAlgorithmRejected) || DropReasonOf(err) != DropAlgorithm {
				t.Errorf("%s: err=%v reason=%v, want ErrAlgorithmRejected/DropAlgorithm", tc.addr, err, DropReasonOf(err))
			}
		}
	}

	// The forgery: DES and AES-128-GCM receivers, each with and without
	// a cipher accept-set pinned to its own suite (what fbsgw's
	// accept_suites produces), refuse it by policy.
	w.principal(t, "alice")
	for _, c := range []CipherID{CipherDES, CipherAES128GCM} {
		for _, pinned := range []bool{false, true} {
			addr := principal.Address(fmt.Sprintf("forged-%v-%t", c, pinned))
			rx := mk(addr, func(cfg *Config) {
				cfg.Cipher = c
				if pinned {
					cfg.AcceptCiphers = []CipherID{c}
				}
			})
			_, err := rx.Open(nullMACForgery("alice", addr, w.clock.Now(), "forged"))
			if !errors.Is(err, ErrAlgorithmRejected) || rx.Snapshot().Drops[DropAlgorithm] != 1 {
				t.Errorf("%s: null-MAC forgery err=%v drops[algorithm]=%d, want ErrAlgorithmRejected and 1",
					addr, err, rx.Snapshot().Drops[DropAlgorithm])
			}
		}
	}

	// A NOP pair still round-trips: both ends are the NOP configuration.
	nop := func(c *Config) { c.Cipher, c.MAC = CipherNone, cryptolib.MACNull }
	nopTx, nopRx := mk("nop-sender", nop), mk("nop-receiver", nop)
	sealed, err := nopTx.Seal(transport.Datagram{Source: "nop-sender", Destination: "nop-receiver", Payload: []byte("nop")}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := nopRx.Open(sealed); err != nil || string(got.Payload) != "nop" {
		t.Errorf("NOP pair: %q, %v; want the payload back", got.Payload, err)
	}
}

// TestSuitePolicyRejection: a receiver whose accept-set excludes the
// sender's suite refuses by policy — for AEAD suites on both secret and
// cleartext datagrams, since the suite is the whole construction.
func TestSuitePolicyRejection(t *testing.T) {
	w := newWorld(t)
	net := transport.NewNetwork(transport.Impairments{})
	mk := func(addr principal.Address, mutate func(*Config)) *Endpoint {
		tr, err := net.Attach(addr, 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Identity:  w.principal(t, addr),
			Transport: tr,
			Directory: w.dir,
			Verifier:  w.ver,
			Clock:     w.clock,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	gcm := mk("gcm-sender", func(c *Config) { c.Cipher = CipherAES128GCM })
	strict := mk("legacy-only", func(c *Config) {
		c.AcceptCiphers = []CipherID{CipherDES, Cipher3DES}
	})
	for _, secret := range []bool{true, false} {
		sealed, err := gcm.Seal(transport.Datagram{
			Source: "gcm-sender", Destination: "legacy-only", Payload: []byte("x"),
		}, secret)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strict.Open(sealed); !errors.Is(err, ErrAlgorithmRejected) {
			t.Errorf("secret=%v: err = %v, want ErrAlgorithmRejected (AEAD accept-set binds cleartext too)", secret, err)
		}
	}
}

// TestAEADSlotHeap holds ROBUSTNESS.md's figures for the heap an AEAD
// flow-key slot's expanded instance keeps live: 768 B for AES-128-GCM
// (key schedule and GCM tables), 48 B for ChaCha20-Poly1305 (the widened
// key), none for a legacy suite. With flowKeyCacheSize slots in each of
// a shard's two flow-key caches, that bounds a shard's instances at
// 384 KiB and 24 KiB. The figures are amd64's; elsewhere the test only
// logs what it measures.
func TestAEADSlotHeap(t *testing.T) {
	const n = 16384
	want := map[CipherID]float64{CipherAES128GCM: 768, CipherChaCha20Poly1305: 48}
	perShard := map[CipherID]int{CipherAES128GCM: 384 << 10, CipherChaCha20Poly1305: 24 << 10}
	for _, s := range Suites() {
		slots := make([]keySlot, n)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := range slots {
			slots[i] = s.slot([16]byte{byte(i), byte(i >> 8)})
		}
		runtime.GC()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(slots)
		got := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / n
		t.Logf("%s: %.1f B live per slot", s.Name(), got)
		if runtime.GOARCH != "amd64" {
			continue
		}
		if math.Abs(got-want[s.ID()]) > 16 {
			t.Errorf("%s: %.1f B live per slot, ROBUSTNESS.md says %.0f", s.Name(), got, want[s.ID()])
		}
		if bound := int(want[s.ID()]) * 2 * flowKeyCacheSize; bound != perShard[s.ID()] {
			t.Errorf("%s: a shard's two caches hold up to %d B of instances, ROBUSTNESS.md says %d", s.Name(), bound, perShard[s.ID()])
		}
	}
}

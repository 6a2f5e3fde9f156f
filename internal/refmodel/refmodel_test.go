package refmodel

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

type world struct {
	dir   *cert.StaticDirectory
	ver   *cert.Verifier
	clock *core.SimClock
	ids   map[principal.Address]*principal.Identity
}

func newWorld(t *testing.T) *world {
	t.Helper()
	ca, err := cert.NewAuthority("ref-root", 512)
	if err != nil {
		t.Fatal(err)
	}
	w := &world{
		dir:   cert.NewStaticDirectory(),
		ver:   &cert.Verifier{CAKey: ca.PublicKey(), CA: "ref-root"},
		clock: core.NewSimClock(time.Date(2026, 7, 4, 9, 0, 0, 0, time.UTC)),
		ids:   make(map[principal.Address]*principal.Identity),
	}
	for _, addr := range []principal.Address{"ref-alice", "ref-bob"} {
		id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
		if err != nil {
			t.Fatal(err)
		}
		c, err := ca.Issue(id, w.clock.Now().Add(-time.Hour), w.clock.Now().Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		w.dir.Publish(c)
		w.ids[addr] = id
	}
	return w
}

func (w *world) endpoint(t *testing.T, addr principal.Address, mutate func(*Config)) *Endpoint {
	t.Helper()
	cfg := Config{
		Identity:   w.ids[addr],
		Directory:  w.dir,
		Verifier:   w.ver,
		Clock:      w.clock,
		Confounder: cryptolib.NewLCGSeeded(uint64(len(addr)) + 77),
		SFLSeed:    1000,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

var testFlow = core.FlowID{Src: "ref-alice", Dst: "ref-bob", Proto: 17, SrcPort: 4000, DstPort: 5000}

func TestRoundTrip(t *testing.T) {
	w := newWorld(t)
	alice := w.endpoint(t, "ref-alice", nil)
	bob := w.endpoint(t, "ref-bob", nil)
	for _, secret := range []bool{false, true} {
		payload := []byte("flow-based datagram security")
		wire, err := alice.Seal("ref-bob", testFlow, payload, secret)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bob.Open("ref-alice", "ref-bob", wire)
		if err != nil {
			t.Fatalf("secret=%v: %v", secret, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("secret=%v: payload corrupted", secret)
		}
		if secret && bytes.Contains(wire, payload) {
			t.Error("encrypted wire contains the plaintext")
		}
	}
	if alice.Sealed() != 2 || bob.Accepted() != 2 {
		t.Errorf("sealed %d accepted %d, want 2 and 2", alice.Sealed(), bob.Accepted())
	}
}

func TestFlowReuseAndWearOut(t *testing.T) {
	w := newWorld(t)
	alice := w.endpoint(t, "ref-alice", func(c *Config) { c.MaxPackets = 3 })
	sflOf := func(wire []byte) uint64 {
		var h uint64
		for _, b := range wire[4:12] {
			h = h<<8 | uint64(b)
		}
		return h
	}
	var sfls []uint64
	for i := 0; i < 4; i++ {
		wire, err := alice.Seal("ref-bob", testFlow, []byte("x"), true)
		if err != nil {
			t.Fatal(err)
		}
		sfls = append(sfls, sflOf(wire))
	}
	if sfls[0] != 1000 || sfls[1] != 1000 || sfls[2] != 1000 {
		t.Errorf("first three datagrams should share sfl 1000, got %v", sfls)
	}
	if sfls[3] != 1001 {
		t.Errorf("wear-out at MaxPackets=3 should rekey to 1001, got %d", sfls[3])
	}
	// An idle gap past the threshold also starts a new flow.
	w.clock.Advance(11 * time.Minute)
	wire, err := alice.Seal("ref-bob", testFlow, []byte("x"), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := sflOf(wire); got != 1002 {
		t.Errorf("idle flow should rekey to 1002, got %d", got)
	}
}

func TestReceiveChecks(t *testing.T) {
	w := newWorld(t)
	alice := w.endpoint(t, "ref-alice", nil)
	bob := w.endpoint(t, "ref-bob", func(c *Config) { c.EnableReplayCache = true })
	wire, err := alice.Seal("ref-bob", testFlow, []byte("check me"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Open("ref-alice", "ref-carol", wire); !errors.Is(err, core.ErrNotForUs) {
		t.Errorf("wrong destination: %v", err)
	}
	if _, err := bob.Open("ref-alice", "ref-bob", wire[:10]); !errors.Is(err, core.ErrMalformed) {
		t.Errorf("truncated header: %v", err)
	}
	bad := append([]byte{}, wire...)
	bad[len(bad)-1] ^= 0x40
	if _, err := bob.Open("ref-alice", "ref-bob", bad); !errors.Is(err, core.ErrBadMAC) {
		t.Errorf("flipped ciphertext: %v", err)
	}
	if _, err := bob.Open("ref-alice", "ref-bob", wire); err != nil {
		t.Fatalf("clean open: %v", err)
	}
	if _, err := bob.Open("ref-alice", "ref-bob", wire); !errors.Is(err, core.ErrReplay) {
		t.Errorf("duplicate: %v", err)
	}
	w.clock.Advance(11 * time.Minute)
	if _, err := bob.Open("ref-alice", "ref-bob", wire); !errors.Is(err, core.ErrStale) {
		t.Errorf("stale: %v", err)
	}
	d := bob.Drops()
	for _, r := range []core.DropReason{core.DropNotForUs, core.DropMalformed, core.DropBadMAC, core.DropReplay, core.DropStale} {
		if d[r] != 1 {
			t.Errorf("drop %v = %d, want 1", r, d[r])
		}
	}
}

func TestFlushKeysRederives(t *testing.T) {
	w := newWorld(t)
	alice := w.endpoint(t, "ref-alice", nil)
	k1, err := alice.FlowKeyTo(7, "ref-bob")
	if err != nil {
		t.Fatal(err)
	}
	alice.FlushKeys()
	k2, err := alice.FlowKeyTo(7, "ref-bob")
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("flow key changed across FlushKeys; master key derivation is unstable")
	}
	if _, err := alice.FlowKeyTo(7, "ref-nobody"); err == nil {
		t.Error("unknown peer keyed successfully")
	}
}

// TestNullMACForgery restates core's rule: a header claiming MAC null
// verifies nothing, so a DES or AES-128-GCM receiver refuses it by
// policy (DropAlgorithm) before any keying, and only a NOP receiver
// accepts one, from a NOP sender.
func TestNullMACForgery(t *testing.T) {
	w := newWorld(t)
	h := core.Header{Version: core.HeaderVersion, MAC: cryptolib.MACNull, Cipher: core.CipherNone,
		SFL: 0x5eed, Timestamp: core.TimestampOf(w.clock.Now())}
	forged := append(h.Encode(nil), "forged"...)
	for _, c := range []core.CipherID{core.CipherDES, core.CipherAES128GCM} {
		bob := w.endpoint(t, "ref-bob", func(cfg *Config) { cfg.Cipher = c })
		if _, err := bob.Open("ref-alice", "ref-bob", forged); !errors.Is(err, core.ErrAlgorithmRejected) {
			t.Errorf("%v receiver: null-MAC forgery %v, want ErrAlgorithmRejected", c, err)
		}
		if d := bob.Drops(); d[core.DropAlgorithm] != 1 || bob.Accepted() != 0 {
			t.Errorf("%v receiver: drops[algorithm]=%d accepted=%d, want 1 and 0", c, d[core.DropAlgorithm], bob.Accepted())
		}
	}
	nop := func(cfg *Config) { cfg.Cipher, cfg.MAC = core.CipherDES, cryptolib.MACNull }
	alice, bob := w.endpoint(t, "ref-alice", nop), w.endpoint(t, "ref-bob", nop)
	wire, err := alice.Seal("ref-bob", testFlow, []byte("nop"), false)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := bob.Open("ref-alice", "ref-bob", wire); err != nil || string(got) != "nop" {
		t.Errorf("NOP pair: %q, %v; want the payload back", got, err)
	}
}

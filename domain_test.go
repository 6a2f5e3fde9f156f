package fbs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
)

func TestDomainDefaults(t *testing.T) {
	d := testDomain(t)
	if d.Group.Bits() != 512 {
		t.Fatalf("WithGroup not applied: %d bits", d.Group.Bits())
	}
	if d.CertLifetime != 30*24*time.Hour {
		t.Fatalf("default cert lifetime = %v", d.CertLifetime)
	}
	if d.Directory() == nil || d.Verifier() == nil {
		t.Fatal("directory/verifier not wired")
	}
	if d.Verifier().CAKey.N == nil {
		t.Fatal("CA key missing")
	}
}

func TestDomainWithClock(t *testing.T) {
	clk := core.NewSimClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := NewDomain("clocked", WithGroup(TestGroup), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	id, err := d.NewPrincipal("clocked-p")
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.Directory().Lookup("clocked-p")
	if err != nil {
		t.Fatal(err)
	}
	// Validity derives from the simulated clock, not wall time.
	if c.NotBefore.After(clk.Now()) || c.NotAfter.Before(clk.Now().Add(29*24*time.Hour)) {
		t.Fatalf("validity %v-%v not anchored to sim clock %v", c.NotBefore, c.NotAfter, clk.Now())
	}
	_ = id
}

func TestDomainDuplicateAttach(t *testing.T) {
	d := testDomain(t)
	net := NewNetwork(Impairments{})
	if _, err := d.NewEndpoint("dup-ep", net); err != nil {
		t.Fatal(err)
	}
	// Attaching the same address twice fails at the network layer and
	// surfaces cleanly.
	if _, err := d.NewEndpoint("dup-ep", net); err == nil {
		t.Fatal("duplicate endpoint address accepted")
	}
}

func TestDomainCertificateExpiryBlocksKeying(t *testing.T) {
	clk := core.NewSimClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	d, err := NewDomain("expiring", WithGroup(TestGroup), WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	d.CertLifetime = time.Hour
	net := NewNetwork(Impairments{})
	a, err := d.NewEndpoint("exp-a", net)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := d.NewEndpoint("exp-b", net)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.SendTo("exp-b", []byte("x"), true); err != nil {
		t.Fatal(err)
	}
	// Two days later every certificate has expired; a fresh endpoint
	// cannot key to the stale directory entries.
	clk.Advance(48 * time.Hour)
	c, err := d.NewEndpoint("exp-c", net)
	if err != nil {
		t.Fatal(err) // its own cert is freshly issued at the new time
	}
	defer c.Close()
	if err := c.SendTo("exp-b", []byte("y"), true); err == nil {
		t.Fatal("keyed against an expired certificate")
	}
	// Re-enrolment heals it with no protocol messages.
	bID := bIdentity(t, d, b)
	if err := d.Enroll(bID); err != nil {
		t.Fatal(err)
	}
	if err := c.SendTo("exp-b", []byte("z"), true); err != nil {
		t.Fatalf("send after re-enrolment failed: %v", err)
	}
}

// bIdentity digs an endpoint's identity back out via the directory and a
// fresh key agreement — or, simpler, re-mints: Domain does not retain
// identities, so tests that need to re-enroll keep their own handle.
// Here we reconstruct by enrolling a NEW identity under the same address
// (allowed: the directory replaces the certificate), which is equivalent
// to a rekey.
func bIdentity(t *testing.T, d *Domain, b *Endpoint) *Identity {
	t.Helper()
	id, err := d.NewPrincipal(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The new identity has a new private value: flush b's... but b holds
	// the OLD identity. For the purpose of this test (c keying to the
	// directory's current certificate), only the directory entry
	// matters; b never receives, we only check c's send-side keying.
	return id
}

// TestProvisionRoundTrip drives the out-of-band side channel end to end:
// a principal exported by one Domain is rebuilt from the JSON document
// alone and exchanges a sealed datagram with a principal that never left
// the Domain's process.
func TestProvisionRoundTrip(t *testing.T) {
	d, err := NewDomain("prov", WithGroup(TestGroup))
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(Impairments{})
	home, err := d.NewEndpoint("home", net)
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	exported, err := d.Provision("away")
	if err != nil {
		t.Fatal(err)
	}
	again, err := d.Provision("away")
	if err != nil {
		t.Fatal(err)
	}
	if exported.Private["away"] == "" || again.Private["away"] != exported.Private["away"] || len(again.Certs) != 2 {
		t.Fatalf("a repeated export re-keyed or re-enrolled the principal: %d certs", len(again.Certs))
	}
	blob, err := json.Marshal(struct {
		*Provision
		Extra string `json:"writer_specific"`
	}{exported, "ignored by LoadProvision"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prov.json")
	if err := os.WriteFile(path, blob, 0600); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadProvision(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := loaded.Config("away")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Verifier.CA != "prov" {
		t.Fatalf("verifier pinned to issuer %q, want the domain's name", cfg.Verifier.CA)
	}
	if cfg.Transport, err = net.Attach("away", 0); err != nil {
		t.Fatal(err)
	}
	away, err := NewEndpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer away.Close()
	if err := away.SendTo("home", []byte("from outside"), true); err != nil {
		t.Fatal(err)
	}
	if dg, err := home.ReceiveValid(); err != nil || string(dg.Payload) != "from outside" {
		t.Fatalf("home received %q, %v", dg.Payload, err)
	}

	if _, err := loaded.Config("home"); err == nil {
		t.Fatal("rebuilt a principal whose private value was never exported")
	}
	// The document is parsed once, so a malformed one is a fresh load.
	bad, err := LoadProvision(path)
	if err != nil {
		t.Fatal(err)
	}
	bad.CAN = "not hex"
	if _, err := bad.Config("away"); err == nil {
		t.Fatal("accepted a malformed CA key")
	}

	// Many names from one document: every Config shares the one parsed
	// Directory and Verifier (rebuilding n principals is n certificate
	// decodes, not n²), and what it returns still keys.
	names := make([]Address, 64)
	for i := range names {
		names[i] = Address(fmt.Sprintf("fleet-%02d", i))
	}
	fleet, err := d.Provision(append(names, names[0])...)
	if err != nil {
		t.Fatal(err)
	}
	// Minted in parallel, exported as ever: one certificate per
	// principal, ordered by subject.
	if len(fleet.Certs) != 2+len(names) || len(fleet.Private) != len(names) {
		t.Fatalf("fleet document: %d certs, %d private values; want %d and %d", len(fleet.Certs), len(fleet.Private), 2+len(names), len(names))
	}
	for i := 1; i < len(fleet.Certs); i++ {
		prev, _ := cert.Unmarshal(fleet.Certs[i-1])
		cur, _ := cert.Unmarshal(fleet.Certs[i])
		if prev == nil || cur == nil || prev.Subject >= cur.Subject {
			t.Fatalf("certificates %d and %d are not in subject order", i-1, i)
		}
	}
	first, err := fleet.Config(names[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		cfg, err := fleet.Config(name)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Directory != first.Directory || cfg.Verifier != first.Verifier {
			t.Fatalf("%s: Config built its own Directory or Verifier; the document's are shared", name)
		}
		if cfg.Identity.Addr != name {
			t.Fatalf("%s: identity is %s", name, cfg.Identity.Addr)
		}
		if cfg.Transport, err = net.Attach(name, 0); err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = ep.SendTo("home", []byte(name), true)
		ep.Close()
		if err != nil {
			t.Fatal(err)
		}
		if dg, err := home.ReceiveValid(); err != nil || dg.Source != name || string(dg.Payload) != string(name) {
			t.Fatalf("home received %q from %s, %v; want %s", dg.Payload, dg.Source, err, name)
		}
	}

	// A document carrying an end-of-range private value fails loudly
	// instead of yielding an identity whose every pair key is public.
	fleet.Private[string(names[1])] = "01"
	if _, err := fleet.Config(names[1]); err == nil {
		t.Fatal("accepted a private value of 1")
	}
}

package fbs

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// Domain bundles the public-value infrastructure the paper assumes
// exists around FBS (Section 5.2): a certificate authority, a directory
// of public-value certificates, and a verifier with the CA key pinned.
// One Domain stands in for "a distributed certification hierarchy or a
// secure DNS service".
type Domain struct {
	// Name is the CA name embedded in issued certificates.
	Name string
	// Group is the Diffie-Hellman group all principals share.
	Group cryptolib.DHGroup
	// CertLifetime is the validity of issued certificates; default 30
	// days.
	CertLifetime time.Duration
	// Clock drives certificate validity and endpoint timestamps.
	Clock Clock

	ca  *cert.Authority
	dir *cert.StaticDirectory
	ver *cert.Verifier

	// provisioned holds the private values minted by Provision, so a
	// repeated export names the same principals instead of re-keying them.
	mu          sync.Mutex
	provisioned map[Address]*big.Int
}

// DomainOption mutates a Domain under construction.
type DomainOption func(*Domain)

// WithGroup selects the Diffie-Hellman group (e.g. cryptolib.TestGroup
// in tests, where 1024-bit keying is needlessly slow).
func WithGroup(g cryptolib.DHGroup) DomainOption {
	return func(d *Domain) { d.Group = g }
}

// WithClock installs a simulation clock.
func WithClock(c Clock) DomainOption {
	return func(d *Domain) { d.Clock = c }
}

// NewDomain creates a security domain with a fresh 1024-bit CA key.
func NewDomain(name string, opts ...DomainOption) (*Domain, error) {
	d := &Domain{
		Name:         name,
		Group:        cryptolib.Oakley2,
		CertLifetime: 30 * 24 * time.Hour,
		Clock:        core.RealClock{},
	}
	for _, o := range opts {
		o(d)
	}
	ca, err := cert.NewAuthority(name, 1024)
	if err != nil {
		return nil, fmt.Errorf("fbs: creating domain CA: %w", err)
	}
	d.ca = ca
	d.dir = cert.NewStaticDirectory()
	d.ver = &cert.Verifier{CAKey: ca.PublicKey(), CA: name}
	d.provisioned = make(map[Address]*big.Int)
	return d, nil
}

// Directory returns the domain's certificate directory.
func (d *Domain) Directory() Directory { return d.dir }

// Verifier returns a certificate verifier pinned to this domain's CA.
func (d *Domain) Verifier() *cert.Verifier { return d.ver }

// NewPrincipal mints an identity, issues its public-value certificate
// and publishes it in the directory.
func (d *Domain) NewPrincipal(addr Address) (*Identity, error) {
	id, err := principal.NewIdentity(addr, d.Group)
	if err != nil {
		return nil, err
	}
	if err := d.Enroll(id); err != nil {
		return nil, err
	}
	return id, nil
}

// Enroll issues and publishes a certificate for an existing identity —
// also the way to re-publish after Identity.Rekey.
func (d *Domain) Enroll(id *Identity) error {
	now := d.Clock.Now()
	c, err := d.ca.Issue(id, now.Add(-time.Minute), now.Add(d.CertLifetime))
	if err != nil {
		return fmt.Errorf("fbs: enrolling %q: %w", id.Addr, err)
	}
	d.dir.Publish(c)
	return nil
}

// NewEndpoint mints a principal, attaches it to the network and returns
// a ready endpoint with the domain's certificate machinery wired in.
// Extra configuration can be layered with opts.
func (d *Domain) NewEndpoint(addr Address, net *Network, opts ...func(*Config)) (*Endpoint, error) {
	id, err := d.NewPrincipal(addr)
	if err != nil {
		return nil, err
	}
	tr, err := net.Attach(addr, 0)
	if err != nil {
		return nil, err
	}
	cfg := Config{
		Identity:  id,
		Transport: tr,
		Directory: d.dir,
		Verifier:  d.ver,
		Clock:     d.Clock,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewEndpoint(cfg)
}

// NewShardedEndpoint enrolls addr once and builds n endpoint shards
// sharing that identity, each over its own transport from mkTransport
// (the SO_REUSEPORT model: one socket per core). Steer outgoing
// datagrams with ShardGroup.ShardOf and incoming ones with
// ShardOfIncoming so each flow's FAM and replay state stays on one
// shard. Shards share no caches on the datagram path; the key plane
// (one PVC, MKC and MKD for the identity) is touched at flow start only.
func (d *Domain) NewShardedEndpoint(addr Address, n int, mkTransport func(shard int) (Transport, error), opts ...func(*Config)) (*ShardGroup, error) {
	id, err := d.NewPrincipal(addr)
	if err != nil {
		return nil, err
	}
	return core.NewShardGroup(n, func(shard int) (Config, error) {
		tr, err := mkTransport(shard)
		if err != nil {
			return Config{}, err
		}
		cfg := Config{
			Identity:  id,
			Transport: tr,
			Directory: d.dir,
			Verifier:  d.ver,
			Clock:     d.Clock,
		}
		for _, o := range opts {
			o(&cfg)
		}
		return cfg, nil
	})
}

// NewEndpointOn wires an endpoint for an already-enrolled identity over
// an arbitrary transport (e.g. transport.UDPTransport).
func (d *Domain) NewEndpointOn(id *Identity, tr Transport, opts ...func(*Config)) (*Endpoint, error) {
	cfg := Config{
		Identity:  id,
		Transport: tr,
		Directory: d.dir,
		Verifier:  d.ver,
		Clock:     d.Clock,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewEndpoint(cfg)
}

// Provision is the out-of-band side channel zero-message keying assumes
// (Section 5.2): everything a process outside the Domain's needs to join
// it. Its JSON form is the provisioning document fbsgw and fbsudp write
// with -state; bench/gwbench parses the same keys.
type Provision struct {
	// CAN and CAE are the CA verification key's modulus and exponent, hex.
	CAN string `json:"ca_n"`
	CAE string `json:"ca_e"`
	// Certs holds every published certificate in wire form, ordered by
	// subject.
	Certs [][]byte `json:"certs"`
	// Private maps a provisioned principal's name to its private value,
	// hex: the secret half of the side channel.
	Private map[string]string `json:"client_private"`

	// The public half, parsed by the first Config call and shared,
	// read-only, by every Config returned after it: rebuilding n
	// principals costs n certificate decodes, not n². Later edits to CAN,
	// CAE or Certs are not seen.
	parse    sync.Once
	dir      *cert.StaticDirectory
	ver      *cert.Verifier
	parseErr error
}

// parsed decodes the CA key and every certificate once. The shared
// Verifier pins the issuer of the document's first certificate; a Domain
// exports certificates of one issuer only.
func (p *Provision) parsed() error {
	p.parse.Do(func() {
		n, okN := new(big.Int).SetString(p.CAN, 16)
		e, okE := new(big.Int).SetString(p.CAE, 16)
		if !okN || !okE {
			p.parseErr = fmt.Errorf("fbs: provisioning document has a malformed CA key")
			return
		}
		p.dir = cert.NewStaticDirectory()
		p.ver = &cert.Verifier{CAKey: cryptolib.RSAPublicKey{N: n, E: e}}
		for i, wire := range p.Certs {
			c, err := cert.Unmarshal(wire)
			if err != nil {
				p.parseErr = err
				return
			}
			if i == 0 {
				p.ver.CA = c.Issuer
			}
			p.dir.Publish(c)
		}
	})
	return p.parseErr
}

// Provision exports the domain: the CA key, every certificate published
// so far, and the private value of each named principal. A name seen for
// the first time is minted and enrolled here, because a private value
// leaves the process only for a principal created to live elsewhere.
// Minting is a g^x and a certificate signature per name, so first-seen
// names are minted on min(GOMAXPROCS, n) goroutines.
func (d *Domain) Provision(names ...Address) (*Provision, error) {
	caKey := d.ca.PublicKey()
	p := &Provision{
		CAN:     caKey.N.Text(16),
		CAE:     caKey.E.Text(16),
		Private: make(map[string]string, len(names)),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var fresh []Address
	for _, name := range names {
		if _, ok := d.provisioned[name]; !ok && !slices.Contains(fresh, name) {
			fresh = append(fresh, name)
		}
	}
	privs, err := d.mint(fresh)
	for i, priv := range privs {
		if priv != nil {
			d.provisioned[fresh[i]] = priv
		}
	}
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		p.Private[string(name)] = hex.EncodeToString(d.provisioned[name].Bytes())
	}
	for _, c := range d.dir.All() {
		p.Certs = append(p.Certs, c.Marshal())
	}
	return p, nil
}

// mint draws a private value for each name and enrolls its identity, on
// min(GOMAXPROCS, len(names)) goroutines. It returns the values in
// names' order, nil where minting failed, and every failure.
func (d *Domain) mint(names []Address) ([]*big.Int, error) {
	privs := make([]*big.Int, len(names))
	errs := make([]error, len(names))
	workers := min(runtime.GOMAXPROCS(0), len(names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(names); i += workers {
				privs[i], errs[i] = d.mintOne(names[i])
			}
		}()
	}
	wg.Wait()
	return privs, errors.Join(errs...)
}

func (d *Domain) mintOne(name Address) (*big.Int, error) {
	priv, err := d.Group.GeneratePrivate()
	if err != nil {
		return nil, err
	}
	id, err := principal.NewIdentityWithPrivate(name, d.Group, priv)
	if err != nil {
		return nil, err
	}
	if err := d.Enroll(id); err != nil {
		return nil, err
	}
	return priv, nil
}

// LoadProvision reads a provisioning document; keys beyond Provision's
// own (a writer's bound addresses, say) are ignored.
func LoadProvision(path string) (*Provision, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p := new(Provision)
	if err := json.Unmarshal(blob, p); err != nil {
		return nil, fmt.Errorf("fbs: provisioning document %s: %w", path, err)
	}
	return p, nil
}

// Config rebuilds what the provisioned principal name needs to join the
// domain: its Identity from the stored private value, a static Directory
// of every certificate, and a Verifier pinned to the CA key and to the
// issuer of the principal's own certificate. The Directory and Verifier
// are the document's, shared by every Config it returns; treat them as
// read-only. The caller adds a Transport (and any policy) and hands the
// result to NewEndpoint.
func (p *Provision) Config(name Address) (Config, error) {
	privHex, ok := p.Private[string(name)]
	if !ok {
		return Config{}, fmt.Errorf("fbs: provisioning document has no private value for %q", name)
	}
	priv, err := hex.DecodeString(privHex)
	if err != nil {
		return Config{}, fmt.Errorf("fbs: private value of %q: %w", name, err)
	}
	if err := p.parsed(); err != nil {
		return Config{}, err
	}
	own, err := p.dir.Lookup(name)
	if err != nil {
		return Config{}, err
	}
	id, err := principal.NewIdentityWithPrivate(name, own.Group(), new(big.Int).SetBytes(priv))
	if err != nil {
		return Config{}, err
	}
	ver := p.ver
	if own.Issuer != ver.CA {
		ver = &cert.Verifier{CAKey: ver.CAKey, CA: own.Issuer}
	}
	return Config{Identity: id, Directory: p.dir, Verifier: ver}, nil
}

// Package cert is the public-value distribution substrate for FBS.
//
// The paper assumes "the confidentiality of the private values and the
// authenticity of the public values", with public values "made available
// and authenticated via a distributed certification hierarchy (e.g.,
// X.509 certificates) or a secure DNS service" (Section 5.2). This
// package provides that substrate: a certificate authority that signs
// public-value certificates, a compact binary certificate encoding, and
// directory services (static/pinned and network-served) from which the
// master key daemon fetches certificates on a PVC miss.
package cert

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sync/atomic"
	"time"

	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// Certificate binds a principal's address to its Diffie-Hellman public
// value for a validity interval, under a CA signature.
type Certificate struct {
	Version   uint8
	Serial    uint64
	Subject   principal.Address
	GroupP    *big.Int
	GroupG    *big.Int
	Public    *big.Int
	NotBefore time.Time
	NotAfter  time.Time
	Issuer    string
	Signature []byte
}

const certVersion = 1

// tbs returns the to-be-signed encoding: every field except the
// signature.
func (c *Certificate) tbs() []byte {
	var out []byte
	out = append(out, c.Version)
	out = binary.BigEndian.AppendUint64(out, c.Serial)
	out = appendBytes(out, c.Subject.Bytes())
	out = appendBytes(out, c.GroupP.Bytes())
	out = appendBytes(out, c.GroupG.Bytes())
	out = appendBytes(out, c.Public.Bytes())
	out = binary.BigEndian.AppendUint64(out, uint64(c.NotBefore.Unix()))
	out = binary.BigEndian.AppendUint64(out, uint64(c.NotAfter.Unix()))
	out = appendBytes(out, []byte(c.Issuer))
	return out
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(b []byte) ([]byte, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("cert: truncated length prefix")
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(len(b)-4) < uint64(n) {
		return nil, nil, fmt.Errorf("cert: truncated field: need %d bytes, have %d", n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}

// Marshal produces the wire encoding of the certificate.
func (c *Certificate) Marshal() []byte {
	return appendBytes(c.tbs(), c.Signature)
}

// Unmarshal parses a certificate from its wire encoding.
func Unmarshal(b []byte) (*Certificate, error) {
	c := new(Certificate)
	if len(b) < 1+8 {
		return nil, fmt.Errorf("cert: truncated certificate")
	}
	c.Version = b[0]
	if c.Version != certVersion {
		return nil, fmt.Errorf("cert: unsupported version %d", c.Version)
	}
	c.Serial = binary.BigEndian.Uint64(b[1:9])
	rest := b[9:]
	var field []byte
	var err error
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.Subject = principal.Address(field)
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.GroupP = new(big.Int).SetBytes(field)
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.GroupG = new(big.Int).SetBytes(field)
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.Public = new(big.Int).SetBytes(field)
	if len(rest) < 16 {
		return nil, fmt.Errorf("cert: truncated validity interval")
	}
	c.NotBefore = time.Unix(int64(binary.BigEndian.Uint64(rest[:8])), 0).UTC()
	c.NotAfter = time.Unix(int64(binary.BigEndian.Uint64(rest[8:16])), 0).UTC()
	rest = rest[16:]
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.Issuer = string(field)
	if field, rest, err = readBytes(rest); err != nil {
		return nil, err
	}
	c.Signature = field
	if len(rest) != 0 {
		return nil, fmt.Errorf("cert: %d trailing bytes", len(rest))
	}
	return c, nil
}

// Group reconstructs the Diffie-Hellman group named by the certificate.
func (c *Certificate) Group() cryptolib.DHGroup {
	return cryptolib.DHGroup{P: c.GroupP, G: c.GroupG}
}

// Authority is a certificate authority: the one CA whose key every
// endpoint's Verifier pins. Issue is safe for concurrent use.
type Authority struct {
	Name string

	key    *cryptolib.RSAPrivateKey
	serial atomic.Uint64
}

// NewAuthority creates a CA with a fresh RSA signing key of the given
// modulus size.
func NewAuthority(name string, bits int) (*Authority, error) {
	key, err := cryptolib.GenerateRSA(bits)
	if err != nil {
		return nil, fmt.Errorf("cert: generating CA key: %w", err)
	}
	return &Authority{Name: name, key: key}, nil
}

// PublicKey returns the CA verification key that relying parties pin.
func (a *Authority) PublicKey() cryptolib.RSAPublicKey { return a.key.RSAPublicKey }

// Issue signs a public-value certificate for the identity, valid for the
// given interval.
func (a *Authority) Issue(id *principal.Identity, notBefore, notAfter time.Time) (*Certificate, error) {
	if !notAfter.After(notBefore) {
		return nil, fmt.Errorf("cert: empty validity interval")
	}
	c := &Certificate{
		Version:   certVersion,
		Serial:    a.serial.Add(1),
		Subject:   id.Addr,
		GroupP:    id.Group.P,
		GroupG:    id.Group.G,
		Public:    id.Public,
		NotBefore: notBefore.UTC().Truncate(time.Second),
		NotAfter:  notAfter.UTC().Truncate(time.Second),
		Issuer:    a.Name,
	}
	sig, err := a.key.Sign(c.tbs())
	if err != nil {
		return nil, fmt.Errorf("cert: signing: %w", err)
	}
	c.Signature = sig
	return c, nil
}

// Verifier validates certificates against a pinned CA key. The paper
// notes certificates "can be verified each time [they are] used", which
// is why the PVC may cache them without being a secure store.
type Verifier struct {
	CAKey cryptolib.RSAPublicKey
	CA    string
}

// Verify checks the signature, issuer, subject and validity of c at time
// now.
func (v *Verifier) Verify(c *Certificate, subject principal.Address, now time.Time) error {
	if c == nil {
		return fmt.Errorf("cert: nil certificate")
	}
	if c.Subject != subject {
		return fmt.Errorf("cert: subject %q, want %q", c.Subject, subject)
	}
	if v.CA != "" && c.Issuer != v.CA {
		return fmt.Errorf("cert: issuer %q, want %q", c.Issuer, v.CA)
	}
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return fmt.Errorf("cert: not valid at %v (valid %v to %v)", now, c.NotBefore, c.NotAfter)
	}
	if !v.CAKey.Verify(c.tbs(), c.Signature) {
		return fmt.Errorf("cert: bad signature on certificate for %q", c.Subject)
	}
	return nil
}

package netsim

import (
	"time"

	"fbs/internal/cert"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
)

// world is the PKI a scenario runs in: a fresh 512-bit CA named root, a
// directory holding a certificate (valid from an hour ago for a day)
// for every principal, the verifier that trusts the CA, and the
// principals' TestGroup identities.
type world struct {
	dir *cert.StaticDirectory
	ver *cert.Verifier
	ids map[principal.Address]*principal.Identity
}

func newWorld(root string, addrs ...principal.Address) (*world, error) {
	ca, err := cert.NewAuthority(root, 512)
	if err != nil {
		return nil, err
	}
	w := &world{
		dir: cert.NewStaticDirectory(),
		ver: &cert.Verifier{CAKey: ca.PublicKey(), CA: root},
		ids: make(map[principal.Address]*principal.Identity, len(addrs)),
	}
	now := time.Now()
	for _, addr := range addrs {
		id, err := principal.NewIdentity(addr, cryptolib.TestGroup)
		if err != nil {
			return nil, err
		}
		c, err := ca.Issue(id, now.Add(-time.Hour), now.Add(24*time.Hour))
		if err != nil {
			return nil, err
		}
		w.dir.Publish(c)
		w.ids[addr] = id
	}
	return w, nil
}

// Quickstart: two principals exchanging authenticated, encrypted
// datagrams with zero-message keying — no handshake, no security
// association setup, no hard state.
package main

import (
	"fmt"
	"log"

	fbs "fbs"
)

func main() {
	// A Domain is the certificate infrastructure FBS assumes: a CA and
	// a directory of public-value certificates.
	domain, err := fbs.NewDomain("quickstart")
	if err != nil {
		log.Fatal(err)
	}

	// An in-memory datagram network (loss-free here; see the
	// securecopy example for an impaired one).
	network := fbs.NewNetwork(fbs.Impairments{})

	// Endpoints mint an identity, enroll it, and attach to the network.
	alice, err := domain.NewEndpoint("alice", network)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()
	bob, err := domain.NewEndpoint("bob", network)
	if err != nil {
		log.Fatal(err)
	}
	defer bob.Close()

	// Send three datagrams: note there is no connection setup of any
	// kind — the first datagram is immediately sendable. The `true`
	// argument requests confidentiality (DES-CBC under the flow key);
	// the MAC is always present.
	for i, msg := range []string{
		"first datagram: starts a flow and derives its key",
		"second datagram: same flow, cached key — no crypto setup",
		"third datagram: still zero protocol messages exchanged",
	} {
		if err := alice.SendTo("bob", []byte(msg), true); err != nil {
			log.Fatal(err)
		}
		dg, err := bob.ReceiveValid()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d: bob verified+decrypted from %s: %q\n", i+1, dg.Source, dg.Payload)
	}

	// The protocol's bookkeeping shows what happened: one flow, one
	// master key computation, one upcall — everything else came out of
	// the soft-state caches.
	as, bs := alice.Snapshot(), bob.Snapshot()
	tfkc := as.Caches[fbs.CacheTFKC].Stats
	fmt.Printf("\nalice: flows created: %d, TFKC hits/misses: %d/%d, DH exponentiations: %d, MKD upcalls: %d\n",
		as.FAM.FlowsCreated, tfkc.Hits, tfkc.Misses, as.Keying.MasterKeyComputes, as.MKDUpcalls)
	fmt.Printf("bob:   accepted: %d, rejected: %d\n",
		bs.Received, bs.Drops[fbs.DropBadMAC]+bs.Drops[fbs.DropStale])
}

package fbs_test

import (
	"fmt"
	"log"
	"time"

	fbs "fbs"
)

// The canonical zero-message exchange: no handshake, no security
// association — the first datagram is immediately sendable.
func Example() {
	domain, err := fbs.NewDomain("example", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		log.Fatal(err)
	}
	network := fbs.NewNetwork(fbs.Impairments{})
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

	if err := alice.SendTo("bob", []byte("hello, flows"), true); err != nil {
		log.Fatal(err)
	}
	dg, err := bob.ReceiveValid()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s -> %s: %s\n", dg.Source, dg.Destination, dg.Payload)
	// Output: alice -> bob: hello, flows
}

// A custom security flow policy: flows keyed by an application
// conversation identifier, with a rekey budget.
func ExampleThresholdPolicy() {
	domain, err := fbs.NewDomain("example-policy", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		log.Fatal(err)
	}
	network := fbs.NewNetwork(fbs.Impairments{})
	sender, err := domain.NewEndpoint("sender", network, func(c *fbs.Config) {
		c.Policy = fbs.ThresholdPolicy{
			Threshold:  5 * time.Minute,
			MaxPackets: 1000, // rekey (new sfl) after 1000 datagrams
		}
		c.Selector = func(dg fbs.Datagram) fbs.FlowID {
			id := fbs.FlowID{Src: dg.Source, Dst: dg.Destination}
			if len(dg.Payload) > 0 {
				id.Aux = uint64(dg.Payload[0]) // conversation tag
			}
			return id
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sender.Close()
	if _, err := domain.NewEndpoint("receiver", network); err != nil {
		log.Fatal(err)
	}

	// Two conversation tags -> two flows.
	sender.SendTo("receiver", []byte{1, 'x'}, true)
	sender.SendTo("receiver", []byte{2, 'y'}, true)
	sender.SendTo("receiver", []byte{1, 'z'}, true)
	fmt.Printf("flows created: %d\n", sender.Snapshot().FAM.FlowsCreated)
	// Output: flows created: 2
}

// Inspecting the live flow state table.
func ExampleEndpoint_Flows() {
	domain, err := fbs.NewDomain("example-flows", fbs.WithGroup(fbs.TestGroup))
	if err != nil {
		log.Fatal(err)
	}
	network := fbs.NewNetwork(fbs.Impairments{})
	a, err := domain.NewEndpoint("a", network)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	if _, err := domain.NewEndpoint("b", network); err != nil {
		log.Fatal(err)
	}
	a.SendTo("b", []byte("0123456789"), true)
	a.SendTo("b", []byte("0123456789"), true)
	for _, f := range a.Flows() {
		fmt.Printf("flow to %s: %d packets, %d bytes\n", f.ID.Dst, f.Packets, f.Bytes)
	}
	// Output: flow to b: 2 packets, 20 bytes
}

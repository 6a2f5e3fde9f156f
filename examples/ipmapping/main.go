// Ipmapping: the FBS-to-IP mapping of Section 7, end to end.
//
// Two hosts talk UDP-over-IPv4 through a forwarding router. Both end
// hosts run FBS inside their IP stacks at exactly the paper's hook
// points (after output processing / before fragmentation, and after
// reassembly / before dispatch). The router is a stock stack: per the
// paper, "a forwarding router also will not see anything 'strange' about
// FBS processed IP packets" — it forwards them untouched and unread.
//
// This example uses the internal IP substrate directly, since the IP
// mapping is part of the reproduction rather than the portable public
// API.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/ip"
	"fbs/internal/l4"
	"fbs/internal/principal"
)

func main() {
	// PKI: a CA and directory shared by the hosts.
	ca, err := cert.NewAuthority("gateway-example", 1024)
	if err != nil {
		log.Fatal(err)
	}
	dir := cert.NewStaticDirectory()
	ver := &cert.Verifier{CAKey: ca.PublicKey(), CA: "gateway-example"}

	hostA, _ := ip.ParseAddr("10.0.0.10")
	hostB, _ := ip.ParseAddr("10.1.0.20")
	routerA, _ := ip.ParseAddr("10.0.0.1")

	// Wire the three stacks: A <-> router <-> B.
	var stackA, stackB, router *ip.Stack
	linkA := ip.LinkFunc(func(f []byte) error { go router.Input(clone(f)); return nil })
	linkB := ip.LinkFunc(func(f []byte) error { go router.Input(clone(f)); return nil })
	linkR := ip.LinkFunc(func(f []byte) error {
		h, _, err := ip.Unmarshal(f)
		if err != nil {
			return err
		}
		if h.Dst == hostB {
			go stackB.Input(clone(f))
		} else {
			go stackA.Input(clone(f))
		}
		return nil
	})

	mkHost := func(addr ip.Addr, link ip.LinkFunc) *ip.Stack {
		id, err := principal.NewIdentity(ip.Principal(addr), cryptolib.Oakley2)
		if err != nil {
			log.Fatal(err)
		}
		c, err := ca.Issue(id, time.Now().Add(-time.Hour), time.Now().Add(24*time.Hour))
		if err != nil {
			log.Fatal(err)
		}
		dir.Publish(c)
		hook, err := ip.NewFBSHook(core.Config{
			Identity:  id,
			Directory: dir,
			Verifier:  ver,
		}, ip.AlwaysSecret)
		if err != nil {
			log.Fatal(err)
		}
		s, err := ip.NewStack(ip.StackConfig{Addr: addr, Link: link, Hook: hook, MTU: 1500})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}
	stackA = mkHost(hostA, linkA)
	stackB = mkHost(hostB, linkB)
	router, err = ip.NewStack(ip.StackConfig{Addr: routerA, Link: linkR})
	if err != nil {
		log.Fatal(err)
	}
	router.Forwarding = true

	// B serves a trivial UDP echo on port 7.
	gotEcho := make(chan string, 1)
	stackB.Handle(ip.ProtoUDP, func(h *ip.Header, payload []byte) {
		uh, body, err := l4.UnmarshalUDP(payload, h.Src, h.Dst)
		if err != nil {
			log.Printf("B: bad UDP: %v", err)
			return
		}
		fmt.Printf("B received on port %d: %q — echoing\n", uh.DstPort, body)
		reply := l4.UDPHeader{SrcPort: uh.DstPort, DstPort: uh.SrcPort}
		seg, err := reply.Marshal(append([]byte("echo: "), body...), h.Dst, h.Src)
		if err != nil {
			log.Fatal(err)
		}
		stackB.Output(ip.ProtoUDP, h.Src, seg, false)
	})
	stackA.Handle(ip.ProtoUDP, func(h *ip.Header, payload []byte) {
		_, body, err := l4.UnmarshalUDP(payload, h.Src, h.Dst)
		if err != nil {
			return
		}
		gotEcho <- string(body)
	})

	// A sends a UDP datagram to B, including one large enough to
	// fragment: the FBS hook sits before fragmentation, so security is
	// applied once per datagram, not per fragment.
	uh := l4.UDPHeader{SrcPort: 5000, DstPort: 7}
	seg, err := uh.Marshal([]byte("hello through the router"), hostA, hostB)
	if err != nil {
		log.Fatal(err)
	}
	if err := stackA.Output(ip.ProtoUDP, hostB, seg, false); err != nil {
		log.Fatal(err)
	}
	select {
	case e := <-gotEcho:
		fmt.Printf("A received: %q\n", e)
	case <-time.After(5 * time.Second):
		log.Fatal("no echo")
	}

	big := make([]byte, 4000)
	binary.BigEndian.PutUint64(big, 0x1122334455667788)
	seg, err = (&l4.UDPHeader{SrcPort: 5000, DstPort: 7}).Marshal(big, hostA, hostB)
	if err != nil {
		log.Fatal(err)
	}
	if err := stackA.Output(ip.ProtoUDP, hostB, seg, false); err != nil {
		log.Fatal(err)
	}
	select {
	case e := <-gotEcho:
		fmt.Printf("A received fragmented echo: %d bytes\n", len(e))
	case <-time.After(5 * time.Second):
		log.Fatal("no fragmented echo")
	}

	fmt.Printf("\nrouter: forwarded %d packets without FBS processing (stats: %+v)\n",
		router.Stats().Forwarded, router.Stats())
	fmt.Printf("host A stack: %+v\n", stackA.Stats())
}

func clone(b []byte) []byte { return append([]byte(nil), b...) }
